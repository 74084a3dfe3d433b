"""Discrete-time arrival and scheduling simulation.

Bernoulli bit arrivals feed a transmit buffer; a codeword is dispatched as
soon as the buffer holds floor(n*eta) bits (asynchronous scheme), or at the
first checkpoint slot m*n_i with enough bits (slotted synchronous scheme).
Experiments here validate the negative-binomial trigger law, the immediacy
of transmissions, and the delay gap between the two schedulers.

run_async_scheduler and run_sync_scheduler schedule one given trace. The
experiments need no horizon: both statistics depend only on where the
trigger slots fall in an unbounded arrival stream. Each trial builds one
generator and draws its stream only until it holds the arrival that
completes codeword N, and its N trigger slots become a row of a
(trials, N) array. buffer_experiment reads the delay gap and the
immediacy frequency off that one array; delay_gap_experiment and
immediacy_violation_freq each read one of them.
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


#: Longest arrival stream, in slots, that one trial may draw. A draw holds
#: an indicator byte per slot plus one block of float64 uniforms; a buffers
#: run whose first draw is near the cap peaks at about 54 MB of resident
#: memory (54.4 MB ru_maxrss of the CLI process, x86-64 Linux, numpy 2.4).
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


#: Uniforms per draw in _arrivals_from: one block of float64 scratch
#: instead of one uniform per slot of the stream.
_DRAW_BLOCK = 2 ** 16


def _arrivals_from(rng, q: float, horizon: int) -> np.ndarray:
    """Arrival indicators of the next horizon slots: uniform below q.

    The uniforms are drawn _DRAW_BLOCK at a time, so a stream costs one
    byte a slot. rng.random(a) then rng.random(b) equals rng.random(a + b),
    so the indicators do not depend on the block size.
    """
    ind = np.empty(horizon, dtype=bool)
    for start in range(0, horizon, _DRAW_BLOCK):
        stop = min(start + _DRAW_BLOCK, horizon)
        np.less(rng.random(stop - start), q, out=ind[start:stop])
    return ind


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


#: Divisors m per block in _check_resonance.
_RESONANCE_BLOCK = 2 ** 16


def _check_resonance(mu: float, theta: float, N: int, tol: float = 1e-9):
    """Raise ResonanceError at the first m in 1..N where mu*m/theta is
    within tol of an integer.

    The m are checked _RESONANCE_BLOCK at a time with the operations of
    the scalar test abs(mu*m/theta - round(mu*m/theta)) <= tol (rint
    rounds half to even, as round does), so the first hit and its message
    are the same. A ratio that overflows is not resonant.
    """
    for start in range(1, N + 1, _RESONANCE_BLOCK):
        m = np.arange(start, min(start + _RESONANCE_BLOCK, N + 1), dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = mu * m / theta
            hits = np.flatnonzero(np.abs(ratio - np.rint(ratio)) <= tol)
        if hits.size:
            m = start + int(hits[0])
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


def _chunk(u, n: int, N: int, theta: float) -> int:
    """floor(n*k/N), the bits per codeword, after the checks that need no
    draw. Callers run these before the resonance check over m = 1..N:
    chunk >= k bounds N by n, and the budget bounds n."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    _check_theta(theta)
    bits = n * (u.k / N)
    # the first draw and 8*n_i in float arithmetic, which bounds both from
    # above and turns an overflow into inf; n_i under the cap keeps the
    # checkpoint products in _checkpoints within int64
    _check_horizon(N * bits / (u.k * u.q) * 1.5 + 64 + 8 * (n * theta))
    chunk = math.floor(bits)
    if chunk < u.k:
        raise ValueError(f"n={n} too small: floor(n*eta)={chunk} < k={u.k}")
    return chunk


def _check_delay_gap(u, n: int, N: int, theta: float, delta: float):
    _chunk(u, n, N, theta)
    _check_resonance(1.0 / (N * u.q), theta, N)
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if math.floor(n * theta) < 1:
        raise ValueError(f"n*theta under one slot (n={n}, theta={theta})")


def _stream_triggers(rng, q: float, span: int,
                     events: np.ndarray) -> np.ndarray:
    """Trigger slots of one trial's Bernoulli stream.

    The stream is drawn span slots first and then doubled until it holds
    the arrival that completes codeword N; each doubling is checked
    against MAX_HORIZON before it is drawn. rng.random(a) then
    rng.random(b) equals rng.random(a + b), so the slots do not depend on
    how the draws are split.
    """
    ind = _arrivals_from(rng, q, span)
    while np.count_nonzero(ind) < events[-1]:
        _check_horizon(2 * len(ind))
        ind = np.concatenate((ind, _arrivals_from(rng, q, len(ind))))
    return _trigger_slots(np.flatnonzero(ind) + 1, events)


def _trigger_rows(u, n: int, N: int, theta: float, trials: int,
                  seed: int) -> np.ndarray:
    """Every trial's N trigger slots, as a (trials, N) array: row t holds
    those of trial t's own stream. The slotted dispatch follows from a
    row in closed form (_checkpoints)."""
    chunk = _chunk(u, n, N, theta)
    events = _trigger_events(u.k, chunk, N)
    # the mean trigger span with margin
    span = int(N * chunk / (u.k * u.q) * 1.5) + 64
    return np.array([_stream_triggers(rng, u.q, span, events)
                     for rng in trial_rngs(seed, trials)])


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
    _check_delay_gap(u, n, N, theta, delta)
    return _lag_freq(_trigger_rows(u, n, N, theta, trials, seed),
                     math.floor(n * theta), delta)


def immediacy_violation_freq(u, n: int, N: int, nprime: int | None,
                             theta: float, trials: int, seed: int) -> float:
    """Fraction of trials where some trigger fires before the previous
    burst has left the transmitter."""
    if N < 2:
        raise ValueError("violations need at least two codewords")
    nprime = _preamble(n, nprime)
    rel = _trigger_rows(u, n, N, theta, trials, seed)
    return _violation_freq(rel, nprime + math.floor(n * theta))


def buffer_experiment(u, n: int, N: int, nprime: int | None, theta: float,
                      delta: float, trials: int, seed: int):
    """Both buffer statistics from one pass over the trials.

    Returns (lag, violation): lag is delay_gap_experiment's per-j
    frequency and violation is immediacy_violation_freq's, or None when
    N < 2 and no burst can follow another. Both read the same trigger
    rows, so the values are those of the two experiments run apart with
    the same seed.
    """
    nprime = _preamble(n, nprime)
    _check_delay_gap(u, n, N, theta, delta)
    rel = _trigger_rows(u, n, N, theta, trials, seed)
    n_i = math.floor(n * theta)
    lag = _lag_freq(rel, n_i, delta)
    return lag, (_violation_freq(rel, nprime + n_i) if N >= 2 else None)
