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
from functools import cached_property

import numpy as np

__all__ = [
    "HorizonTooShortError",
    "ResonanceError",
    "ArrivalTrace",
    "BurstSchedule",
    "SyncSchedule",
    "run_async_scheduler",
    "run_sync_scheduler",
    "delay_gap_experiment",
    "immediacy_violation_freq",
    "trial_rngs",
]


#: Longest arrival trace, in slots, that one trial may draw. A draw holds a
#: float64 uniform and an indicator per slot; a buffers run whose horizon
#: is near the cap peaks at about 195 MB of resident memory.
MAX_HORIZON = 2 ** 24


class HorizonTooShortError(ValueError):
    """The trace ended before all codewords were triggered."""


class ResonanceError(ValueError):
    """mu is (numerically) an integer multiple of theta/m, so the
    synchronous-vs-asynchronous delay gap theorem does not apply."""


def trial_rngs(seed: int, trials: int):
    """Independent child generators, one per trial.

    Splitting off SeedSequence children keeps trials reproducible even if
    they are later farmed out in parallel.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(trials)]


@dataclass(frozen=True)
class ArrivalTrace:
    """0/1 arrival indicators for stream-relative slots 1..horizon."""

    indicators: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.indicators)

    @cached_property
    def slots(self) -> np.ndarray:
        """1-based slots of the arrival events, computed once per trace."""
        return np.flatnonzero(self.indicators) + 1


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


def _arrivals_from(rng, q: float, horizon: int) -> np.ndarray:
    return rng.random(horizon) < q


def _trigger_slots(slots: np.ndarray, k: int, chunk: int, N: int) -> np.ndarray:
    """Stream-relative slots where cumulative bits first reach j*chunk.

    slots are the 1-based arrival slots (ArrivalTrace.slots). Codeword j
    completes with arrival event ceil(j*chunk/k); event 0 (no bits needed)
    counts as slot 0. Events are all 0 when chunk is 0 and all >= 1
    otherwise.
    """
    events = -(-chunk * np.arange(1, N + 1) // k)
    if events[-1] > len(slots):
        raise HorizonTooShortError(
            f"trace supplies {k * len(slots)} bits, need {N * chunk}"
        )
    if chunk == 0:
        return np.zeros(N, dtype=slots.dtype)
    return slots[events - 1]


def run_async_scheduler(tr: ArrivalTrace, u, n: int, N: int,
                        nprime: int | None, theta: float, nu: float) -> BurstSchedule:
    """Trigger slots of the send-as-soon-as-ready scheme.

    The bit stream starts at slot max(floor(n*nu), 1); codeword j triggers
    at the slot where cumulative arrivals first reach j*floor(n*eta).
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    chunk = math.floor(n * (u.k / N))
    if chunk < u.k:
        raise ValueError(f"n={n} too small: floor(n*eta)={chunk} < k={u.k}")
    if nprime is None:
        nprime = math.ceil(math.sqrt(n))
    if nprime < 0:
        raise ValueError(f"nprime must be nonnegative, got {nprime}")
    n_i = math.floor(n * theta)
    s0 = max(math.floor(n * nu), 1)
    rel = _trigger_slots(tr.slots, u.k, chunk, N)
    taus = tuple(int(s0 - 1 + r) for r in rel)
    busy = nprime + n_i
    violations = tuple(int(j) + 2 for j in np.flatnonzero(np.diff(rel) < busy))
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
    # the first checkpoint at or after codeword j's trigger, pushed on to
    # follow the previous dispatch: m_j = max(r_j, m_{j-1} + 1)
    j = np.arange(1, N + 1)
    r = np.maximum(1, -(-_trigger_slots(tr.slots, u.k, chunk, N) // n_i))
    m = np.maximum.accumulate(r - j) + j
    if m[-1] * n_i > tr.horizon:
        end = (tr.horizon // n_i + 1) * n_i
        raise HorizonTooShortError(
            f"checkpoint {end} beyond horizon {tr.horizon}"
        )
    return SyncSchedule(sigmas=tuple(int(s) for s in m * n_i), n_i=n_i)


def _check_resonance(mu: float, theta: float, N: int, tol: float = 1e-9):
    for m in range(1, N + 1):
        ratio = mu * m / theta
        if abs(ratio - round(ratio)) <= tol:
            raise ResonanceError(
                f"mu={mu} is an integer multiple of theta/{m}={theta / m}"
            )


def _check_horizon(horizon: float):
    if not horizon <= MAX_HORIZON:
        raise ValueError(f"an arrival trace of {horizon:.4g} slots exceeds "
                         f"MAX_HORIZON = {MAX_HORIZON}")


def _trial_schedules(u, n: int, N: int, theta: float, trials: int, seed: int,
                     schedule):
    """schedule(trace) on one fresh arrival trace per trial.

    Each trace is drawn only as far as schedule reads it: first the span
    slots, then, if schedule runs out, the rest of the horizon from the same
    generator. rng.random(a) then rng.random(b) equals rng.random(a + b),
    and both schedulers are causal, so the result is the one the full
    horizon gives. A trace too short at the full horizon is redrawn from the
    same stream at twice the horizon, and later trials keep the longer
    horizon.
    """
    bits = n * (u.k / N)
    # the horizon below in float arithmetic, which bounds it from above and
    # turns an overflow into inf, so the budget holds before any draw
    _check_horizon(N * bits / (u.k * u.q) * 1.5 + 64 + 8 * (n * theta))
    chunk = math.floor(bits)
    # span: the mean trigger span with margin; the generous horizon adds
    # slack for the sync checkpoints
    span = int(N * chunk / (u.k * u.q) * 1.5) + 64
    horizon = span + 8 * math.floor(n * theta)
    for rng in trial_rngs(seed, trials):
        ind = _arrivals_from(rng, u.q, min(span, horizon))
        while True:
            try:
                result = schedule(ArrivalTrace(ind))
                break
            except HorizonTooShortError:
                if len(ind) < horizon:
                    rest = _arrivals_from(rng, u.q, horizon - len(ind))
                    ind = np.concatenate((ind, rest))
                else:
                    _check_horizon(2 * horizon)
                    horizon *= 2
                    ind = _arrivals_from(rng, u.q, min(span, horizon))
        yield result


def delay_gap_experiment(u, n: int, N: int, theta: float, delta: float,
                         trials: int, seed: int) -> np.ndarray:
    """Per-j frequency of the slotted scheme lagging by a (1+delta) factor.

    Runs both schedulers on common traces and reports, for each codeword j,
    the fraction of trials with sigma_j > (1+delta)*tau_j.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not (math.isfinite(theta) and theta > 0):
        raise ValueError(f"theta must be positive and finite, got {theta}")
    mu = 1.0 / (N * u.q)
    _check_resonance(mu, theta, N)
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    pairs = _trial_schedules(u, n, N, theta, trials, seed, lambda tr: (
        run_async_scheduler(tr, u, n, N, 0, theta, 0.0),
        run_sync_scheduler(tr, u, n, N, theta)))
    hits = sum(np.greater(sync.sigmas, (1.0 + delta) * np.array(sched.taus))
               for sched, sync in pairs)
    return hits / trials


def immediacy_violation_freq(u, n: int, N: int, nprime: int | None,
                             theta: float, trials: int, seed: int) -> float:
    """Fraction of trials where some trigger fires before the previous
    burst has left the transmitter."""
    if N < 2:
        raise ValueError("violations need at least two codewords")
    if not (math.isfinite(theta) and theta > 0):
        raise ValueError(f"theta must be positive and finite, got {theta}")
    scheds = _trial_schedules(
        u, n, N, theta, trials, seed,
        lambda tr: run_async_scheduler(tr, u, n, N, nprime, theta, 0.0))
    return sum(bool(s.violations) for s in scheds) / trials

