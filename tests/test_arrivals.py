import math
import tracemalloc

import numpy as np
import pytest

from burstgic import ConfigError, arrivals
from burstgic.arrivals import (
    ArrivalTrace,
    BurstSchedule,
    HorizonTooShortError,
    ResonanceError,
    SyncSchedule,
    buffer_experiment,
    delay_gap_experiment,
    immediacy_violation_freq,
    run_async_scheduler,
    run_sync_scheduler,
    trial_rngs,
)
from burstgic.model import UserParams


def simulate_arrivals(u, horizon: int, seed: int) -> ArrivalTrace:
    """I.i.d. Bernoulli(q) arrival indicators, one per slot."""
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    rng = np.random.default_rng(seed)
    return ArrivalTrace(rng.random(horizon) < u.q)


def test_simulate_deterministic_arrivals():
    u = UserParams(k=1, q=1.0, P=1.0, a=0.0)
    tr = simulate_arrivals(u, 50, seed=0)
    assert tr.indicators.sum() == 50


def test_simulate_mean_within_ci():
    u = UserParams(k=2, q=0.3, P=1.0, a=0.0)
    tr = simulate_arrivals(u, 100_000, seed=11)
    se = math.sqrt(0.3 * 0.7 / 100_000)
    assert abs(tr.indicators.mean() - 0.3) < 3 * se


def test_simulate_reproducible():
    u = UserParams(k=2, q=0.3, P=1.0, a=0.0)
    a = simulate_arrivals(u, 1000, seed=42)
    b = simulate_arrivals(u, 1000, seed=42)
    assert np.array_equal(a.indicators, b.indicators)
    c = simulate_arrivals(u, 1000, seed=43)
    assert not np.array_equal(a.indicators, c.indicators)


def test_simulate_rejects_bad_horizon():
    u = UserParams(k=2, q=0.3, P=1.0, a=0.0)
    with pytest.raises(ValueError):
        simulate_arrivals(u, 0, seed=1)


def test_async_deterministic_progression():
    # one bit per slot, five bits per codeword: triggers at 5, 10, 15
    u = UserParams(k=1, q=1.0, P=1.0, a=0.0)
    tr = simulate_arrivals(u, 15, seed=0)
    sched = run_async_scheduler(tr, u, n=15, N=3, nprime=1, theta=0.2, nu=0.0)
    assert sched.taus == (5, 10, 15)
    assert sched.violations == ()


def test_async_stream_offset_shifts_triggers():
    u = UserParams(k=1, q=1.0, P=1.0, a=0.0)
    tr = simulate_arrivals(u, 15, seed=0)
    sched = run_async_scheduler(tr, u, n=15, N=3, nprime=1, theta=0.2, nu=0.5)
    # stream starts at slot floor(15*0.5) = 7, so triggers shift by 6
    assert sched.taus == (11, 16, 21)


def test_async_horizon_too_short():
    u = UserParams(k=1, q=1.0, P=1.0, a=0.0)
    tr = simulate_arrivals(u, 9, seed=0)
    with pytest.raises(HorizonTooShortError):
        run_async_scheduler(tr, u, n=15, N=3, nprime=1, theta=0.2, nu=0.0)


def test_async_default_preamble_is_sqrt_n():
    u = UserParams(k=1, q=1.0, P=1.0, a=0.0)
    tr = simulate_arrivals(u, 200, seed=0)
    sched = run_async_scheduler(tr, u, n=150, N=1, nprime=None, theta=0.2, nu=0.0)
    assert sched.nprime == math.ceil(math.sqrt(150))


def test_schedule_invariants_enforced():
    with pytest.raises(ValueError):
        BurstSchedule(taus=(5, 5), n=10, nprime=1, n_i=2, violations=())


def _nb_moments(r, q):
    return r / q, r * (1 - q) / q**2


def test_trigger_law_matches_negative_binomial():
    # trigger slot minus stream offset behaves as the trials-to-success law
    u = UserParams(k=3, q=0.3, P=1.0, a=0.0)
    n, N, nu = 600, 2, 0.5
    chunk = math.floor(n * u.k / N)
    horizon = 9000
    T = 4000
    taus = np.empty((T, N))
    for t, rng in enumerate(trial_rngs(7, T)):
        ind = (rng.random(horizon) < u.q).astype(np.uint8)
        tr = ArrivalTrace(indicators=ind)
        sched = run_async_scheduler(tr, u, n=n, N=N, nprime=8, theta=1.0, nu=nu)
        taus[t] = sched.taus
    shift = math.floor(n * nu) - 1
    for j in (1, 2):
        r = j * chunk / u.k
        mean, var = _nb_moments(r, u.q)
        xi = taus[:, j - 1] - shift
        se_mean = math.sqrt(var / T)
        assert abs(xi.mean() - mean) < 4 * se_mean
        kurt = (6 + u.q**2 / (1 - u.q)) / r
        se_var = var * math.sqrt((2 + kurt) / (T - 1))
        assert abs(xi.var(ddof=1) - var) < 4 * se_var


def test_violations_fade_with_blocklength():
    # mu = 1 barely above theta = 0.9: early triggers happen at small n
    # but die off exponentially as n grows
    u = UserParams(k=2, q=0.5, P=1.0, a=0.0)
    freqs = [
        immediacy_violation_freq(u, n, N=2, nprime=None, theta=0.9,
                                 trials=10_000, seed=3)
        for n in (500, 1000, 2000)
    ]
    assert freqs[0] > freqs[1] > freqs[2]


def test_sync_checkpoints():
    u = UserParams(k=1, q=1.0, P=1.0, a=0.0)
    tr = simulate_arrivals(u, 24, seed=0)
    sync = run_sync_scheduler(tr, u, n=12, N=4, theta=0.5)
    assert sync.n_i == 6
    assert sync.sigmas == (6, 12, 18, 24)


def test_sync_horizon_too_short():
    u = UserParams(k=1, q=1.0, P=1.0, a=0.0)
    tr = simulate_arrivals(u, 10, seed=0)
    with pytest.raises(HorizonTooShortError):
        run_sync_scheduler(tr, u, n=12, N=4, theta=0.5)


def test_sync_first_dispatch_mode():
    # mu/theta = 2.22..., so the buffer almost always fills between the
    # second and third checkpoints at large n
    u = UserParams(k=3, q=0.3, P=1.0, a=0.0)
    n, theta = 2000, 1.5
    n_i = math.floor(n * theta)
    mstar = math.floor((1 / u.q) / theta)
    assert mstar == 2
    hits = 0
    T = 300
    for rng in trial_rngs(19, T):
        ind = (rng.random(30_000) < u.q).astype(np.uint8)
        tr = ArrivalTrace(indicators=ind)
        sync = run_sync_scheduler(tr, u, n=n, N=1, theta=theta)
        hits += sync.sigmas[0] == (mstar + 1) * n_i
    assert hits / T >= 0.9


def test_sync_never_beats_async():
    u = UserParams(k=2, q=0.4, P=1.0, a=0.0)
    for rng in trial_rngs(23, 200):
        ind = (rng.random(4000) < u.q).astype(np.uint8)
        tr = ArrivalTrace(indicators=ind)
        sched = run_async_scheduler(tr, u, n=300, N=3, nprime=0, theta=0.7, nu=0.0)
        sync = run_sync_scheduler(tr, u, n=300, N=3, theta=0.7)
        assert all(s >= t for s, t in zip(sync.sigmas, sched.taus))


def test_delay_gap_resonance_rejected():
    u = UserParams(k=1, q=0.5, P=1.0, a=0.0)  # mu = 2
    with pytest.raises(ResonanceError, match="theta/1"):
        delay_gap_experiment(u, 1000, N=1, theta=1.0, delta=0.1, trials=10, seed=0)


def test_delay_gap_frequency_high():
    # (1+delta)*mu = 4 stays below (mstar+1)*theta = 4.5
    u = UserParams(k=3, q=0.3, P=1.0, a=0.0)
    freq = delay_gap_experiment(u, 10_000, N=1, theta=1.5, delta=0.2,
                                trials=500, seed=5)
    assert freq[0] >= 0.95


def test_delay_gap_trend_in_n():
    u = UserParams(k=3, q=0.3, P=1.0, a=0.0)
    f1 = delay_gap_experiment(u, 1000, N=1, theta=1.5, delta=0.2,
                              trials=300, seed=9)
    f2 = delay_gap_experiment(u, 10_000, N=1, theta=1.5, delta=0.2,
                              trials=300, seed=9)
    assert f2[0] >= f1[0]


# ---------------------------------------------------------------------------
# oracle: the cumulative-sum schedulers that the arrival-slot ones replaced


def _cumsum_trigger_slots(indicators, k, chunk, N):
    """Stream-relative slots where cumulative bits first reach j*chunk."""
    cum = k * np.cumsum(indicators, dtype=np.int64)
    need = chunk * np.arange(1, N + 1, dtype=np.int64)
    if cum[-1] < need[-1]:
        raise HorizonTooShortError(
            f"trace supplies {int(cum[-1])} bits, need {int(need[-1])}"
        )
    return np.searchsorted(cum, need, side="left") + 1


def _cumsum_async(tr, u, n, N, nprime, theta, nu):
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    eta = u.k / N
    chunk = math.floor(n * eta)
    if chunk < u.k:
        raise ValueError(f"n={n} too small: floor(n*eta)={chunk} < k={u.k}")
    if nprime is None:
        nprime = math.ceil(math.sqrt(n))
    n_i = math.floor(n * theta)
    s0 = max(math.floor(n * nu), 1)
    rel = _cumsum_trigger_slots(tr.indicators, u.k, chunk, N)
    taus = tuple(int(s0 - 1 + r) for r in rel)
    busy = nprime + n_i
    violations = tuple(
        j for j in range(2, N + 1) if taus[j - 1] <= taus[j - 2] + busy - 1
    )
    return BurstSchedule(taus=taus, n=n, nprime=nprime, n_i=n_i,
                         violations=violations)


def _checkpoint_sync(tr, u, n, N, theta):
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    chunk = math.floor(n * (u.k / N))
    n_i = math.floor(n * theta)
    if n_i < 1:
        raise ValueError(f"n*theta under one slot (n={n}, theta={theta})")
    cum = u.k * np.cumsum(tr.indicators, dtype=np.int64)
    sigmas = []
    m = 1
    for j in range(1, N + 1):
        while True:
            end = m * n_i
            if end > tr.horizon:
                raise HorizonTooShortError(
                    f"checkpoint {end} beyond horizon {tr.horizon}"
                )
            if cum[end - 1] >= j * chunk:
                sigmas.append(end)
                m += 1
                break
            m += 1
    return SyncSchedule(sigmas=tuple(sigmas), n_i=n_i)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return type(e)


def test_schedulers_match_cumsum_oracles():
    # seeded random traces, short horizons included, bool and uint8
    # indicators; the schedules or the exception types must agree
    rng = np.random.default_rng(2024)
    seen = {"async ok": 0, "sync ok": 0, "short": 0, "chunk 0": 0}
    for _ in range(4000):
        u = UserParams(k=int(rng.integers(1, 5)),
                       q=float(rng.uniform(0.05, 1.0)), P=1.0, a=0.0)
        N = int(rng.integers(1, 7))
        n = int(rng.integers(1, 60))
        theta = float(rng.uniform(0.01, 2.0))
        nu = float(rng.uniform(0.0, 1.0))
        nprime = None if rng.random() < 0.2 else int(rng.integers(0, 12))
        ind = rng.random(int(rng.integers(1, 300))) < u.q
        tr = ArrivalTrace(ind if rng.random() < 0.5 else ind.astype(np.uint8))
        got = _outcome(run_async_scheduler, tr, u, n, N, nprime, theta, nu)
        assert got == _outcome(_cumsum_async, tr, u, n, N, nprime, theta, nu)
        got_sync = _outcome(run_sync_scheduler, tr, u, n, N, theta)
        assert got_sync == _outcome(_checkpoint_sync, tr, u, n, N, theta)
        seen["async ok"] += isinstance(got, BurstSchedule)
        seen["sync ok"] += isinstance(got_sync, SyncSchedule)
        seen["short"] += HorizonTooShortError in (got, got_sync)
        if isinstance(got_sync, SyncSchedule) and n * u.k < N:
            seen["chunk 0"] += 1
            assert got_sync.sigmas == tuple(
                m * got_sync.n_i for m in range(1, N + 1))
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# oracle: the per-trace schedulers on one Bernoulli trace per trial


def _span(u, N, chunk):
    """The mean trigger span with margin."""
    return int(N * chunk / (u.k * u.q) * 1.5) + 64


def _full_draw_traces(u, n, N, theta, trials, seed):
    """One arrival trace per trial generator, drawn in full at a length no
    stream of these tests outruns, after the checks that need no draw."""
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    if not (math.isfinite(theta) and theta > 0):
        raise ConfigError(f"theta must be positive and finite, got {theta}")
    chunk = math.floor(n * (u.k / N))
    if chunk < u.k:
        raise ConfigError(f"n={n} too small: floor(n*eta)={chunk} < k={u.k}")
    horizon = 16 * _span(u, N, chunk) + 8 * math.floor(n * theta)
    return [ArrivalTrace(rng.random(horizon) < u.q)
            for rng in trial_rngs(seed, trials)]


def _lag_freq(traces, u, n, N, theta, delta):
    hits = 0
    for tr in traces:
        sched = run_async_scheduler(tr, u, n, N, 0, theta, 0.0)
        sync = run_sync_scheduler(tr, u, n, N, theta)
        hits += np.greater(sync.sigmas, (1.0 + delta) * np.array(sched.taus))
    return hits / len(traces)


def _violation_freq(traces, u, n, N, nprime, theta):
    scheds = [run_async_scheduler(tr, u, n, N, nprime, theta, 0.0)
              for tr in traces]
    return sum(bool(s.violations) for s in scheds) / len(traces)


def _full_draw_delay_gap(u, n, N, theta, delta, trials, seed):
    traces = _full_draw_traces(u, n, N, theta, trials, seed)
    if not delta > 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    if math.floor(n * theta) < 1:
        raise ConfigError(f"n*theta under one slot (n={n}, theta={theta})")
    # resonance is last
    freq = _lag_freq(traces, u, n, N, theta, delta)
    arrivals._check_resonance(1.0 / (N * u.q), theta, N)
    return freq


def _full_draw_immediacy(u, n, N, nprime, theta, trials, seed):
    if N < 2:
        raise ValueError("violations need at least two codewords")
    traces = _full_draw_traces(u, n, N, theta, trials, seed)
    return _violation_freq(traces, u, n, N, nprime, theta)


def _same(got, want):
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and np.array_equal(got, want)
    return got == want and type(got) is type(want)


def _failure(outcome):
    """The exception type an _outcome holds, or None for a value."""
    return outcome if isinstance(outcome, type) else None


def _trace_of_row(row, d, horizon, q, rng):
    """A Bernoulli trace whose arrival e_j falls at slot row[j-1].

    The d_j - 1 other arrivals of gap j sit at random slots strictly
    between row[j-2] and row[j-1] (there are row[j-1] - row[j-2] - 1 >=
    d_j - 1 of them); the slots past row[-1] are Bernoulli(q).
    """
    ind = rng.random(horizon) < q
    ind[:row[-1]] = False
    prev = 0
    for t, dj in zip(row, d):
        others = rng.choice(np.arange(prev + 1, t), dj - 1, replace=False)
        ind[others - 1] = True
        ind[t - 1] = True
        prev = t
    return ArrivalTrace(ind)


def _check_against_full_draw(u, n, N, nprime, theta, delta, trials, seed):
    """A config fails as the full-draw oracle fails; the one pass gives
    the experiments' values; and a Bernoulli trace built on each drawn row
    gives that row and its slotted dispatches back. Returns the trigger
    rows, or None if the delay gap fails."""
    want_gap = _outcome(_full_draw_delay_gap, u, n, N, theta, delta,
                        trials, seed)
    want_imm = _outcome(_full_draw_immediacy, u, n, N, nprime, theta,
                        trials, seed)
    assert want_gap is not HorizonTooShortError
    assert want_imm is not HorizonTooShortError
    gap = _outcome(delay_gap_experiment, u, n, N, theta, delta, trials, seed)
    imm = _outcome(immediacy_violation_freq, u, n, N, nprime, theta, trials,
                   seed)
    assert _failure(gap) is _failure(want_gap)
    assert _failure(imm) is _failure(want_imm)
    # the one pass gives both, and fails as the delay gap does
    got = _outcome(lambda: buffer_experiment(u, [n], N, nprime, theta, delta,
                                             trials, seed)[0])
    if _failure(gap):
        assert got is gap
        return None
    assert _same(got[0], gap)
    assert got[1] is None if N < 2 else _same(got[1], imm)
    # every trial's triggers and slotted dispatches, on a trace built on
    # its row
    events = arrivals._checked_events(u, n, N, theta, trials)
    rel = arrivals._trigger_rows(u, events, trials, seed)
    assert rel.shape == (trials, N)
    d = np.diff(events, prepend=0)
    n_i = math.floor(n * theta)
    sigmas = arrivals._checkpoints(rel, n_i) * n_i
    rng = np.random.default_rng(seed)
    for row, sigma in zip(rel, sigmas):
        tr = _trace_of_row(row, d, int(sigma[-1]), u.q, rng)
        assert run_async_scheduler(tr, u, n, N, 0, theta, 0.0).taus \
            == tuple(row)
        assert run_sync_scheduler(tr, u, n, N, theta).sigmas == tuple(sigma)
    return rel


def _oracle_configs(rng):
    """(u, n, N, nprime, theta, delta, trials, seed) for the oracle test."""
    # small n and rates down to q = 0.002 give long gaps between triggers
    # as well as short ones
    for _ in range(400):
        u = UserParams(k=int(rng.integers(1, 5)),
                       q=float(np.exp(rng.uniform(math.log(0.002), 0.0))),
                       P=1.0, a=0.0)
        N = int(rng.integers(1, 6))
        n = int(rng.integers(1, 20))
        theta = float(rng.uniform(0.05, 3.0))
        delta = float(rng.uniform(0.05, 2.0))
        nprime = None if rng.random() < 0.2 else int(rng.integers(0, 20))
        trials, seed = int(rng.integers(1, 9)), int(rng.integers(2**31))
        yield u, n, N, nprime, theta, delta, trials, seed
    # n = N = 1 needs a single arrival, whose Geometric(q) wait has the
    # heaviest tail
    for _ in range(30):
        u = UserParams(k=int(rng.integers(1, 5)),
                       q=float(np.exp(rng.uniform(math.log(1e-4),
                                                  math.log(0.002)))),
                       P=1.0, a=0.0)
        theta = float(rng.uniform(1.0, 3.0))
        delta = float(rng.uniform(0.05, 2.0))
        trials, seed = int(rng.integers(20, 41)), int(rng.integers(2**31))
        yield u, 1, 1, None, theta, delta, trials, seed
    # resonant configs, theta = mu*m/j with mu = 1/(N*q), m <= N and j a
    # positive integer: alone, with delta <= 0, or with n*theta under one
    # slot. Both routes must report the config error before the resonance
    for i in range(60):
        u = UserParams(k=int(rng.integers(1, 5)),
                       q=float(rng.uniform(0.05, 1.0)), P=1.0, a=0.0)
        N = int(rng.integers(1, 6))
        n = int(rng.integers(N, 20))  # chunk >= k
        mu, m = 1.0 / (N * u.q), int(rng.integers(1, N + 1))
        if i % 3 == 2:  # j > n*mu*m puts n*theta below one slot
            j = math.floor(n * mu * m) + int(rng.integers(1, 4))
        else:
            j = int(rng.integers(1, 4))
        theta = mu * m / j
        if i % 3 != 2:
            n = max(n, math.ceil(1.0 / theta))
        delta = (float(rng.choice([0.0, -0.5, -1e-300])) if i % 3 == 1
                 else float(rng.uniform(0.05, 2.0)))
        nprime = None if rng.random() < 0.2 else int(rng.integers(0, 20))
        trials, seed = int(rng.integers(1, 9)), int(rng.integers(2**31))
        yield u, n, N, nprime, theta, delta, trials, seed


#: (u, n, N, nprime, theta, delta) for the two-sample comparison; small n
#: keeps every frequency well inside (0, 1)
COMPARED = (
    (UserParams(k=2, q=0.3, P=1.0, a=0.0), 20, 2, 3, 1.3, 0.5),
    (UserParams(k=2, q=0.3, P=1.0, a=0.0), 40, 3, 2, 0.9, 0.3),
    (UserParams(k=1, q=0.5, P=1.0, a=0.0), 12, 2, 1, 0.7, 0.4),
    (UserParams(k=3, q=0.1, P=1.0, a=0.0), 30, 3, 5, 2.1, 0.25),
)


def _two_sided_z(alpha):
    """z with P(|Z| > z) = alpha for a standard normal Z, by bisection."""
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if math.erfc(mid / math.sqrt(2)) > alpha \
            else (lo, mid)
    return hi


def test_experiments_match_full_horizon_oracle():
    passed, failed = 0, {ConfigError: 0, ResonanceError: 0}
    for cfg in _oracle_configs(np.random.default_rng(77)):
        rel = _check_against_full_draw(*cfg)
        passed += rel is not None
        if rel is None:
            u, n, N, _, theta, delta, trials, seed = cfg
            failed[_outcome(delay_gap_experiment, u, n, N, theta, delta,
                            trials, seed)] += 1
    assert passed >= 200 and sum(failed.values()) >= 20, (passed, failed)
    # both failures occur: a resonance, and a config error that comes
    # before the resonance of the same config
    assert min(failed.values()) >= 10, failed
    # The one draw and the full-draw route sample the same law with
    # different streams, so their frequencies are compared as two
    # binomial samples of T trials each. Under a common p, the difference
    # of the two frequencies has variance 2p(1-p)/T; p is estimated by
    # the pooled frequency, and 1/T more allows for the counts' lattice.
    # With a Bonferroni split of alpha = 1e-3 over every frequency
    # compared, a sound draw fails this with probability under 1e-3.
    T, seed = 3000, 8
    compared = sum(N + 1 for _, _, N, _, _, _ in COMPARED)
    z = _two_sided_z(1e-3 / compared)
    for u, n, N, nprime, theta, delta in COMPARED:
        lag, viol = buffer_experiment(u, [n], N, nprime, theta, delta, T,
                                      seed)[0]
        traces = _full_draw_traces(u, n, N, theta, T, seed)
        want_lag = _lag_freq(traces, u, n, N, theta, delta)
        want_viol = _violation_freq(traces, u, n, N, nprime, theta)
        for got, want in (*zip(lag, want_lag), (viol, want_viol)):
            p = (got + want) / 2
            margin = z * math.sqrt(2 * p * (1 - p) / T) + 1 / T
            assert abs(got - want) <= margin, (u, n, N, got, want, margin)


def test_trigger_rows_match_negative_binomial_moments():
    # column j is e_j + NegativeBinomial(e_j, q): mean e_j/q and variance
    # e_j(1-q)/q**2, each within four standard errors
    T = 200_000
    for k, q, n, N in ((3, 0.3, 600, 2), (2, 0.05, 90, 3), (1, 0.9, 7, 5)):
        u = UserParams(k=k, q=q, P=1.0, a=0.0)
        events = arrivals._trigger_events(k, math.floor(n * k / N), N)
        rel = arrivals._trigger_rows(u, events, T, 17)
        for e, col in zip(events, rel.T):
            mean, var = _nb_moments(e, q)
            assert abs(col.mean() - mean) < 4 * math.sqrt(var / T)
            kurt = (6 + q**2 / (1 - q)) / e
            se_var = var * math.sqrt((2 + kurt) / (T - 1))
            assert abs(col.var(ddof=1) - var) < 4 * se_var


def _first_resonance(mu, theta, N, tol=1e-9):
    """The scalar check, one m at a time: the first resonant m, or None."""
    for m in range(1, N + 1):
        ratio = mu * m / theta
        if abs(ratio - round(ratio)) <= tol:
            return m
    return None


@pytest.mark.parametrize("block", [None, 7])
def test_resonance_check_matches_scalar_loop(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(arrivals, "_RESONANCE_BLOCK", block)
    rng = np.random.default_rng(77)
    cases = [(1e-7, 1.2345678e-6, 200_000), (0.5, 1.0, 1)]
    for _ in range(150):
        N = int(rng.integers(1, 400))
        mu = 1.0 / (N * rng.uniform(0.05, 1.0))
        m0, j = int(rng.integers(1, N + 1)), int(rng.integers(1, 60))
        cases.append((mu, float(rng.uniform(0.01, 5.0)), N))
        cases.append((mu, mu * m0 / j, N))  # resonant at m0 or before
        # ratios a hair inside and outside the tolerance at m0
        for d in (0.9e-9, -0.9e-9, 1.1e-9, -1.1e-9):
            cases.append((mu, mu * m0 / (j + d), N))
    outcomes = {"hit": 0, "miss": 0}
    for mu, theta, N in cases:
        want = _first_resonance(mu, theta, N)
        if want is None:
            arrivals._check_resonance(mu, theta, N)
            outcomes["miss"] += 1
            continue
        with pytest.raises(ResonanceError) as err:
            arrivals._check_resonance(mu, theta, N)
        assert str(err.value) == (f"mu={mu} is an integer multiple of "
                                  f"theta/{want}={theta / want}")
        outcomes["hit"] += 1
    assert min(outcomes.values()) > 100


def test_resonance_check_treats_overflow_as_not_resonant():
    # mu*m/theta overflows to inf; the scalar loop's round(inf) raised
    # OverflowError here
    arrivals._check_resonance(1.0, 5e-324, 3)
    with pytest.raises(ValueError, match="under one slot"):
        delay_gap_experiment(UserParams(k=2, q=0.3, P=1.0, a=0.0), 300, N=2,
                             theta=1e-320, delta=0.5, trials=2, seed=0)


@pytest.mark.parametrize("n", [math.inf, math.nan])
def test_default_preamble_leaves_non_finite_n_to_the_config_checks(n):
    # with nprime None the preamble is ceil(sqrt(n)), which has no value
    # at these n; the int64 guard refuses them in every experiment
    u = UserParams(k=2, q=0.3, P=1.0, a=0.0)
    for call in (lambda: delay_gap_experiment(u, n, 2, 1.3, 0.5, 3, 1),
                 lambda: buffer_experiment(u, [n], 2, None, 1.3, 0.5, 3, 1)[0],
                 lambda: immediacy_violation_freq(u, n, 2, None, 1.3, 3, 1)):
        with pytest.raises(ConfigError, match="int64 guard"):
            call()


def test_schedulers_are_causal_on_prefixes():
    # every prefix of a trace either runs out or gives the full-trace
    # schedule, so the slots past the last trigger do not matter
    rng = np.random.default_rng(5)
    agreed = 0
    for _ in range(150):
        u = UserParams(k=int(rng.integers(1, 4)),
                       q=float(rng.uniform(0.05, 1.0)), P=1.0, a=0.0)
        N = int(rng.integers(1, 5))
        n = int(rng.integers(1, 30))
        theta = float(rng.uniform(0.05, 2.0))
        nprime = int(rng.integers(0, 10))
        ind = rng.random(int(rng.integers(1, 250))) < u.q
        for fn, args in ((run_async_scheduler, (u, n, N, nprime, theta, 0.0)),
                         (run_sync_scheduler, (u, n, N, theta))):
            full = _outcome(fn, ArrivalTrace(ind), *args)
            for end in range(len(ind)):
                got = _outcome(fn, ArrivalTrace(ind[:end]), *args)
                assert got in (HorizonTooShortError, full)
                agreed += got == full and not isinstance(full, type)
    assert agreed >= 1000, agreed


def test_trace_budget_is_checked_before_drawing():
    u = UserParams(k=2, q=0.3, P=1.0, a=0.0)
    tiny_q = UserParams(k=2, q=1e-18, P=1.0, a=0.0)
    huge_k = UserParams(k=2**63, q=0.3, P=1.0, a=0.0)
    tracemalloc.start()
    try:
        for args, needle in (((tiny_q, 300, 2, 3), "int64 guard"),
                             ((huge_k, 300, 2, 3), "int64 guard"),
                             ((u, 10**13, 2, 3), "int64 guard"),
                             ((u, 10**308, 1, 3), "int64 guard"),
                             ((u, 300, 2, 2**19 + 1), "MAX_TRIGGERS"),
                             ((u, 300, 1, 10**300), "MAX_TRIGGERS"),
                             ((u, 10**6, 10**6, 2), "MAX_TRIGGERS")):
            *cfg, trials = args
            with pytest.raises(ValueError, match=needle):
                delay_gap_experiment(*cfg, theta=1.3, delta=0.5,
                                     trials=trials, seed=1)
            with pytest.raises(ValueError, match=needle):
                immediacy_violation_freq(*cfg[:2], max(cfg[2], 2), 20, 1.3,
                                         trials, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # the largest draw the budget allows, and a rate whose 3e14-slot
    # wait no Bernoulli stream could hold
    events = arrivals._checked_events(u, 300, 2, 1.3, 2**19)
    assert arrivals._trigger_rows(u, events, 2**19, 1).shape == (2**19, 2)
    assert delay_gap_experiment(UserParams(k=2, q=1e-12, P=1.0, a=0.0),
                                300, 2, 1.3, 0.5, 3, 1).shape == (2,)


def test_one_n_within_max_triggers_fits_the_run_budget():
    # the most trigger slots and output rows one n may have (one trial at
    # N = MAX_TRIGGERS) fits the run budget once, not twice; no draw
    u = UserParams(k=2, q=0.3, P=1.0, a=0.0)
    N = arrivals.MAX_TRIGGERS
    arrivals.check_run(u, [2 * N], N, None, 1.3, 0.5, 1)
    with pytest.raises(ConfigError, match="MAX_RUN_TRIGGERS"):
        arrivals.check_run(u, [2 * N, 2 * N], N, None, 1.3, 0.5, 1)


def test_buffer_experiment_over_a_run_is_each_n_alone():
    # each n draws afresh from the seed, so a run over several n gives
    # each n's single-n values, array for array
    u = UserParams(k=2, q=0.3, P=1.0, a=0.0)
    for N, nprime in ((3, None), (1, 20)):
        run = buffer_experiment(u, [300, 600], N, nprime, 1.3, 0.5, 40, 7)
        alone = [buffer_experiment(u, [n], N, nprime, 1.3, 0.5, 40, 7)[0]
                 for n in (300, 600)]
        assert len(run) == 2
        for (lag, viol), (want_lag, want_viol) in zip(run, alone):
            np.testing.assert_array_equal(lag, want_lag)
            assert viol == want_viol
            assert (viol is None) == (N < 2)
