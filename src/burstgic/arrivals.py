"""Discrete-time arrival and scheduling simulation.

Bernoulli bit arrivals feed a transmit buffer; a codeword is dispatched as
soon as the buffer holds floor(n*eta) bits (asynchronous scheme), or at the
first checkpoint slot m*n_i with enough bits (slotted synchronous scheme).
Experiments here validate the negative-binomial trigger law, the immediacy
of transmissions, and the delay gap between the two schedulers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HorizonTooShortError",
    "ResonanceError",
    "ArrivalTrace",
    "BurstSchedule",
    "SyncSchedule",
    "simulate_arrivals",
    "run_async_scheduler",
    "run_sync_scheduler",
    "delay_gap_experiment",
    "immediacy_violation_freq",
    "binomial_tail_bound",
    "trial_rngs",
]


class HorizonTooShortError(ValueError):
    """The trace ended before all codewords were triggered."""


class ResonanceError(ValueError):
    """mu is (numerically) an integer multiple of theta/m, so the
    synchronous-vs-asynchronous delay gap theorem does not apply."""


def trial_rngs(seed: int, trials: int, streams_per_trial: int = 1):
    """Independent child generators, one (or a tuple) per trial.

    Splitting off SeedSequence children keeps trials reproducible even if
    they are later farmed out in parallel.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    roots = np.random.SeedSequence(seed).spawn(trials)
    if streams_per_trial == 1:
        return [np.random.default_rng(s) for s in roots]
    return [tuple(np.random.default_rng(c) for c in s.spawn(streams_per_trial))
            for s in roots]


@dataclass(frozen=True)
class ArrivalTrace:
    """0/1 arrival indicators for stream-relative slots 1..horizon."""

    indicators: np.ndarray
    seed: int

    @property
    def horizon(self) -> int:
        return len(self.indicators)


@dataclass(frozen=True)
class BurstSchedule:
    """Trigger slots of the asynchronous scheme.

    Codeword j's bits complete at the end of slot taus[j-1]; the burst
    (preamble plus codeword) occupies the following nprime + n_i slots.
    violations lists the j whose trigger fired before burst j-1 finished.
    """

    taus: tuple
    n: int
    nprime: int
    n_i: int
    violations: tuple

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.taus, self.taus[1:])):
            raise ValueError(f"trigger slots must be strictly increasing: {self.taus}")


@dataclass(frozen=True)
class SyncSchedule:
    """Checkpoint slots at which the slotted scheme dispatches codewords."""

    sigmas: tuple
    n_i: int

    def __post_init__(self):
        if any(s % self.n_i for s in self.sigmas):
            raise ValueError("dispatch slots must be multiples of n_i")


def simulate_arrivals(u, horizon: int, seed: int) -> ArrivalTrace:
    """I.i.d. Bernoulli(q) arrival indicators, one per slot."""
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    rng = np.random.default_rng(seed)
    ind = (rng.random(horizon) < u.q).astype(np.uint8)
    return ArrivalTrace(indicators=ind, seed=seed)


def _arrivals_from(rng, q: float, horizon: int) -> np.ndarray:
    return (rng.random(horizon) < q).astype(np.uint8)


def _trigger_slots(indicators: np.ndarray, k: int, chunk: int, N: int) -> np.ndarray:
    """Stream-relative slots where cumulative bits first reach j*chunk."""
    cum = k * np.cumsum(indicators, dtype=np.int64)
    need = chunk * np.arange(1, N + 1, dtype=np.int64)
    if cum[-1] < need[-1]:
        raise HorizonTooShortError(
            f"trace supplies {int(cum[-1])} bits, need {int(need[-1])}"
        )
    return np.searchsorted(cum, need, side="left") + 1


def run_async_scheduler(tr: ArrivalTrace, u, n: int, N: int,
                        nprime: int | None, theta: float, nu: float) -> BurstSchedule:
    """Trigger slots of the send-as-soon-as-ready scheme.

    The bit stream starts at slot max(floor(n*nu), 1); codeword j triggers
    at the slot where cumulative arrivals first reach j*floor(n*eta).
    """
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
    rel = _trigger_slots(tr.indicators, u.k, chunk, N)
    taus = tuple(int(s0 - 1 + r) for r in rel)
    busy = nprime + n_i
    violations = tuple(
        j for j in range(2, N + 1) if taus[j - 1] <= taus[j - 2] + busy - 1
    )
    return BurstSchedule(taus=taus, n=n, nprime=nprime, n_i=n_i,
                         violations=violations)


def run_sync_scheduler(tr: ArrivalTrace, u, n: int, N: int, theta: float) -> SyncSchedule:
    """Dispatch slots of the slotted reference scheme.

    Codeword j goes out at the first checkpoint m*n_i (m integer, one
    codeword per checkpoint) whose end sees at least j*floor(n*eta)
    cumulative bits.
    """
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


def _check_resonance(mu: float, theta: float, N: int, tol: float = 1e-9):
    for m in range(1, N + 1):
        ratio = mu * m / theta
        if abs(ratio - round(ratio)) <= tol:
            raise ResonanceError(
                f"mu={mu} is an integer multiple of theta/{m}={theta / m}"
            )


def delay_gap_experiment(u, n: int, N: int, theta: float, delta: float,
                         trials: int, seed: int) -> np.ndarray:
    """Per-j frequency of the slotted scheme lagging by a (1+delta) factor.

    Runs both schedulers on common traces and reports, for each codeword j,
    the fraction of trials with sigma_j > (1+delta)*tau_j.
    """
    mu = 1.0 / (N * u.q)
    _check_resonance(mu, theta, N)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    chunk = math.floor(n * (u.k / N))
    n_i = math.floor(n * theta)
    # generous horizon: mean trigger span plus slack for the sync checkpoints
    horizon = int(N * chunk / (u.k * u.q) * 1.5) + 8 * n_i + 64
    hits = np.zeros(N, dtype=np.int64)
    for rng in trial_rngs(seed, trials):
        while True:
            ind = _arrivals_from(rng, u.q, horizon)
            tr = ArrivalTrace(indicators=ind, seed=-1)
            try:
                sched = run_async_scheduler(tr, u, n, N, 0, theta, 0.0)
                sync = run_sync_scheduler(tr, u, n, N, theta)
                break
            except HorizonTooShortError:
                horizon *= 2
        for j in range(N):
            if sync.sigmas[j] > (1.0 + delta) * sched.taus[j]:
                hits[j] += 1
    return hits / trials


def immediacy_violation_freq(u, n: int, N: int, nprime: int | None,
                             theta: float, trials: int, seed: int) -> float:
    """Fraction of trials where some trigger fires before the previous
    burst has left the transmitter."""
    if N < 2:
        raise ValueError("violations need at least two codewords")
    chunk = math.floor(n * (u.k / N))
    horizon = int(N * chunk / (u.k * u.q) * 1.5) + 8 * math.floor(n * theta) + 64
    bad = 0
    for rng in trial_rngs(seed, trials):
        while True:
            tr = ArrivalTrace(indicators=_arrivals_from(rng, u.q, horizon), seed=-1)
            try:
                sched = run_async_scheduler(tr, u, n, N, nprime, theta, 0.0)
                break
            except HorizonTooShortError:
                horizon *= 2
        if sched.violations:
            bad += 1
    return bad / trials


def binomial_tail_bound(N: int, p: float, eps: float) -> float:
    """Chernoff-style upper bound on P(Bin(N,p) >= (1+eps)*N*p)."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return math.exp(-((1.0 + eps) * math.log(1.0 + eps) - eps) * N * p)
