"""Discrete-time arrival and scheduling simulation.

Bernoulli bit arrivals feed a transmit buffer; a codeword is dispatched as
soon as the buffer holds floor(n*eta) bits (asynchronous scheme), or at the
first checkpoint slot m*n_i with enough bits (slotted synchronous scheme).
Experiments here validate the negative-binomial trigger law, the immediacy
of transmissions, and the delay gap between the two schedulers.

run_async_scheduler and run_sync_scheduler schedule one given trace. The
experiments make one pass over their trials instead: each trial builds one
generator, locates its N trigger slots once and stores them as a row of a
(trials, N) array, and both statistics then come from that array in a few
numpy calls. buffer_experiment computes the delay gap and the immediacy
frequency from the same pass; the values are those of delay_gap_experiment
and immediacy_violation_freq run apart with the same seed.
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
    "buffer_experiment",
    "trial_rngs",
]


#: Longest arrival trace, in slots, that one trial may draw. A draw holds a
#: float64 uniform and an indicator per slot; a buffers run whose horizon
#: is near the cap peaks at about 180 MB of resident memory.
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


def _trigger_events(k: int, chunk: int, N: int) -> np.ndarray:
    """Arrival events that complete codewords 1..N: e_j = ceil(j*chunk/k).

    Event 0 (no bits needed) stands for slot 0. Events are all 0 when
    chunk is 0 and strictly increasing when chunk >= k.
    """
    return -(-chunk * np.arange(1, N + 1) // k)


def _trigger_slots(slots: np.ndarray, events: np.ndarray) -> np.ndarray:
    """Stream-relative slots where cumulative bits first reach j*chunk.

    slots are the 1-based arrival slots (ArrivalTrace.slots) and events
    come from _trigger_events; codeword j completes with arrival event
    events[j-1].
    """
    if events[-1] > len(slots):
        raise HorizonTooShortError(
            f"trace holds {len(slots)} arrivals, need {events[-1]}")
    if events[0] == 0:
        return np.zeros(len(events), dtype=slots.dtype)
    return slots[events - 1]


def _checkpoints(triggers: np.ndarray, n_i: int) -> np.ndarray:
    """Checkpoint index m_j of each slotted dispatch, along the last axis.

    Codeword j goes out at the first checkpoint at or after its trigger,
    pushed on to follow the previous dispatch: m_j = max(r_j, m_{j-1} + 1)
    with r_j = max(1, ceil(t_j / n_i)), that is m_j = j + max over i <= j
    of (r_i - i).
    """
    j = np.arange(1, triggers.shape[-1] + 1)
    r = np.maximum(1, -(-triggers // n_i))
    return np.maximum.accumulate(r - j, axis=-1) + j


def _dispatch_fits(triggers: np.ndarray, n_i: int, horizon: int) -> bool:
    """Whether one trace's last slotted dispatch m_N*n_i is within horizon."""
    # m_N <= N - 1 + r_N settles most traces without the running maximum
    r_last = max(1, -(-int(triggers[-1]) // n_i))
    if (len(triggers) - 1 + r_last) * n_i <= horizon:
        return True
    return _checkpoints(triggers, n_i)[-1] * n_i <= horizon


def _preamble(n: int, nprime: int | None) -> int:
    """The preamble length: nprime, or ceil(sqrt(n)) when it is None."""
    if nprime is None:
        return math.ceil(math.sqrt(n))
    if nprime < 0:
        raise ValueError(f"nprime must be nonnegative, got {nprime}")
    return nprime


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
    nprime = _preamble(n, nprime)
    n_i = math.floor(n * theta)
    s0 = max(math.floor(n * nu), 1)
    rel = _trigger_slots(tr.slots, _trigger_events(u.k, chunk, N))
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
    events = _trigger_events(u.k, chunk, N)
    m = _checkpoints(_trigger_slots(tr.slots, events), n_i)
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


def _check_theta(theta: float):
    if not (math.isfinite(theta) and theta > 0):
        raise ValueError(f"theta must be positive and finite, got {theta}")


def _check_delay_gap(u, N: int, theta: float, delta: float):
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _check_theta(theta)
    _check_resonance(1.0 / (N * u.q), theta, N)
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")


class _Stream:
    """One trial's Bernoulli arrivals, drawn only as far as they are read.

    Slot s of the stream is rng.random() draw s < q. rng.random(a) then
    rng.random(b) equals rng.random(a + b), so the slots do not depend on
    how the draws are split. Trigger slots are cached per trace.
    """

    def __init__(self, rng, q: float, events: np.ndarray):
        self.rng, self.q, self.events = rng, q, events
        self.ind = np.zeros(0, dtype=bool)
        self.found = {}

    def triggers(self, start: int, stop: int):
        """Trigger slots of the trace held in stream slots [start, stop),
        relative to its start, or None if the trace is too short."""
        key = (start, stop)
        if key not in self.found:
            if stop > len(self.ind):
                more = _arrivals_from(self.rng, self.q, stop - len(self.ind))
                self.ind = np.concatenate((self.ind, more))
            try:
                self.found[key] = _trigger_slots(
                    np.flatnonzero(self.ind[start:stop]) + 1, self.events)
            except HorizonTooShortError:
                self.found[key] = None
        return self.found[key]


def _trigger_rows(u, n: int, N: int, theta: float, trials: int, seed: int,
                  slotted: tuple) -> list:
    """Every trial's N trigger slots, one (trials, N) array per experiment.

    slotted holds a flag per experiment: True if its trace must also reach
    the last slotted dispatch (the delay gap), False if it needs the
    triggers only (immediacy). An experiment's trace is the first H slots
    of the trial's stream, H being its horizon. A trace too short at H is
    replaced by the next 2H slots of the same stream, and later trials
    keep 2H. The experiments keep separate horizons, since a slotted-only
    shortfall doubles just the delay gap's, but each trial builds one
    generator and locates the triggers of a trace once for all of them.

    Each stream is drawn only as far as a trace is read: a trace's first
    span slots, then, if its triggers lie beyond, the rest of it. Both
    schedulers are causal, so a trace's triggers are those its full draw
    gives, and the slotted dispatch follows from them in closed form.
    """
    bits = n * (u.k / N)
    # the horizon below in float arithmetic, which bounds it from above and
    # turns an overflow into inf, so the budget holds before any draw
    _check_horizon(N * bits / (u.k * u.q) * 1.5 + 64 + 8 * (n * theta))
    chunk = math.floor(bits)
    if chunk < u.k:
        raise ValueError(f"n={n} too small: floor(n*eta)={chunk} < k={u.k}")
    n_i = math.floor(n * theta)
    if any(slotted) and n_i < 1:
        raise ValueError(f"n*theta under one slot (n={n}, theta={theta})")
    rngs = trial_rngs(seed, trials)
    events = _trigger_events(u.k, chunk, N)
    # span: the mean trigger span with margin; the generous horizon adds
    # slack for the sync checkpoints
    span = int(N * chunk / (u.k * u.q) * 1.5) + 64
    horizons = [span + 8 * n_i] * len(slotted)
    rows = [np.empty((trials, N), dtype=np.intp) for _ in slotted]
    for t, rng in enumerate(rngs):
        stream = _Stream(rng, u.q, events)
        for e, sync in enumerate(slotted):
            start, horizon = 0, horizons[e]
            while True:
                rel = stream.triggers(start, start + span)
                if rel is None:
                    rel = stream.triggers(start, start + horizon)
                if rel is not None and (
                        not sync or _dispatch_fits(rel, n_i, horizon)):
                    break
                _check_horizon(2 * horizon)
                start += horizon
                horizon *= 2
            rows[e][t] = rel
            horizons[e] = horizon
    return rows


def _lag_freq(rel: np.ndarray, n_i: int, delta: float) -> np.ndarray:
    """Per-j fraction of rows whose slotted dispatch m_j*n_i passes
    (1+delta) times the trigger slot."""
    sigmas = _checkpoints(rel, n_i) * n_i
    return np.count_nonzero(sigmas > (1.0 + delta) * rel, axis=0) / len(rel)


def _violation_freq(rel: np.ndarray, busy: int) -> float:
    """Fraction of rows where a trigger fires within busy slots of the
    previous one."""
    early = (np.diff(rel, axis=1) < busy).any(axis=1)
    return int(np.count_nonzero(early)) / len(rel)


def delay_gap_experiment(u, n: int, N: int, theta: float, delta: float,
                         trials: int, seed: int) -> np.ndarray:
    """Per-j frequency of the slotted scheme lagging by a (1+delta) factor.

    Runs both schedulers on common traces and reports, for each codeword j,
    the fraction of trials with sigma_j > (1+delta)*tau_j.
    """
    _check_delay_gap(u, N, theta, delta)
    rel, = _trigger_rows(u, n, N, theta, trials, seed, (True,))
    return _lag_freq(rel, math.floor(n * theta), delta)


def immediacy_violation_freq(u, n: int, N: int, nprime: int | None,
                             theta: float, trials: int, seed: int) -> float:
    """Fraction of trials where some trigger fires before the previous
    burst has left the transmitter."""
    if N < 2:
        raise ValueError("violations need at least two codewords")
    _check_theta(theta)
    nprime = _preamble(n, nprime)
    rel, = _trigger_rows(u, n, N, theta, trials, seed, (False,))
    return _violation_freq(rel, nprime + math.floor(n * theta))


def buffer_experiment(u, n: int, N: int, nprime: int | None, theta: float,
                      delta: float, trials: int, seed: int):
    """Both buffer statistics from one pass over the trials.

    Returns (lag, violation): lag is delay_gap_experiment's per-j
    frequency and violation is immediacy_violation_freq's, or None when
    N < 2 and no burst can follow another. The values are those of the
    two experiments run apart with the same seed, at half the draws.
    """
    nprime = _preamble(n, nprime)
    _check_delay_gap(u, N, theta, delta)
    rows = _trigger_rows(u, n, N, theta, trials, seed,
                         (True, False) if N >= 2 else (True,))
    n_i = math.floor(n * theta)
    lag = _lag_freq(rows[0], n_i, delta)
    return lag, (_violation_freq(rows[1], nprime + n_i) if N >= 2 else None)
