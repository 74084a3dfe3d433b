"""Discrete-time arrival and scheduling simulation.

Bernoulli bit arrivals feed a transmit buffer; a codeword is dispatched as
soon as the buffer holds floor(n*eta) bits (asynchronous scheme), or at the
first checkpoint slot m*n_i with enough bits (slotted synchronous scheme).
Experiments here validate the negative-binomial trigger law, the immediacy
of transmissions, and the delay gap between the two schedulers.

run_async_scheduler and run_sync_scheduler schedule one given trace. The
experiments need no trace: both statistics depend only on where the
trigger slots fall in an unbounded Bernoulli(q) arrival stream. Codeword
j completes with arrival event e_j, and the slot of arrival e is e plus a
NegativeBinomial(e, q) count of empty slots, with independent counts for
the gaps d_j = e_j - e_{j-1} between trigger events. So one draw from one
generator gives every trial's N trigger slots as a (trials, N) array, the
cumulative sums of d_j + NegativeBinomial(d_j, q) along each row.
buffer_experiment reads the delay gap and the immediacy frequency off that
one array for each n of a run; delay_gap_experiment and
immediacy_violation_freq each read one of them. Before the draw, trials*N
is checked against MAX_TRIGGERS, and a bound on every integer the draw
forms against an int64 guard; buffer_experiment runs check_run, which
makes every n's checks and prices the run against MAX_RUN_TRIGGERS, once
before its first draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ConfigError, InfeasibleError
from .model import _count

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
    "check_run",
    "trial_rngs",
]


#: Most trigger slots, trials*N, that one n of a buffers run may draw. The
#: slots are one int64 (trials, N) array, and reading the statistics off
#: it holds a few temporaries of that size, about 32 bytes a slot in all;
#: a run at the cap peaks at about 68 MB of resident memory, some 32 MB
#: above the CLI's imports (67.5 MB ru_maxrss of the CLI process at N = 1,
#: 2 and 3, x86-64 Linux, numpy 2.4).
MAX_TRIGGERS = 2 ** 20

#: Most work one buffers run may do over all of its n_values, in trigger
#: slots. Measured in-process on the 2-CPU x86-64 benchmark box (numpy
#: 2.4): a slot costs about 140 ns to draw and read (n = 300 at 349,525
#: trials and N = 3: 0.15 s), each of an n's N output rows about 2 us, or
#: 15 slots (N = 2**20 at one trial: 2.2 s for the CLI), and each n about
#: 100 us of fixed work, or 700 slots (20,000 n at one trial and N = 1:
#: 2.0 s). So an n costs (trials + 15)*N + 700 slots, one n that
#: MAX_TRIGGERS admits costs at most about half the budget, and a run at
#: the budget takes about 5 s.
MAX_RUN_TRIGGERS = 2 ** 25


class HorizonTooShortError(ValueError):
    """The trace ended before all codewords were triggered."""


class ResonanceError(InfeasibleError):
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
    if nprime is None:  # _checked_events refuses an n below 1 or not finite
        return math.ceil(math.sqrt(n)) if 1 <= n < math.inf else 0
    if nprime < 0:
        raise ConfigError(f"nprime must be nonnegative, got {nprime}")
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


def _check_slots(u, n: int, N: int, theta: float, bits: float):
    """Refuse, before any draw, a run whose integers could leave int64.

    bits is n*k/N. _trigger_events forms chunk*j <= N*bits = n*k. Each gap
    d_j is at most e_N <= e = N*bits/k + 1, and numpy documents that
    negative_binomial(d, q) needs d*(1-q)/q*(1 + 10*sqrt(d)), the mean plus
    ten sigma of its gamma draw, below 2**63 - 1 - 10*sqrt(2**63 - 1).
    Summed over a row's gaps, that bound plus e_N bounds the last trigger
    slot by e*(1 + 10*sqrt(e))/q, and the dispatch m_N*n_i of _checkpoints
    passes that slot by at most N*n_i. The bounds are taken in float
    arithmetic, which turns an overflow into inf, and held below 2**62,
    a factor 2 short of int64 for tails past ten sigma.
    """
    e = N * bits / u.k + 1
    bound = max(N * bits, e * (1 + 10 * math.sqrt(e)) / u.q + N * (n * theta))
    if not bound <= 2.0 ** 62:
        raise ConfigError(f"the trigger draw reaches {bound:.4g}, beyond its "
                          f"int64 guard of 2**62")


def _checked_chunk(u, n: int, N: int, theta: float, trials: int) -> int:
    """The chunk floor(n*eta), after the checks that need no draw. Callers
    run these before the resonance check over m = 1..N: MAX_TRIGGERS
    bounds N, and the int64 guard bounds n and k."""
    if N < 1:
        raise ConfigError(f"N must be >= 1, got {N}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {_count(n)}")
    if not (math.isfinite(theta) and theta > 0):
        raise ConfigError(f"theta must be positive and finite, got {theta}")
    bits = n * (u.k / N)
    _check_slots(u, n, N, theta, bits)
    chunk = math.floor(bits)
    if chunk < u.k:
        raise ConfigError(f"n={n} too small: floor(n*eta)={chunk} < k={u.k}")
    if trials < 1:
        raise ConfigError("need at least one trial")
    if trials * N > MAX_TRIGGERS:
        raise ConfigError(f"trials*N = {trials * N} trigger slots exceed "
                          f"MAX_TRIGGERS = {MAX_TRIGGERS}")
    return chunk


def _checked_events(u, n: int, N: int, theta: float,
                    trials: int) -> np.ndarray:
    """The trigger events of codewords 1..N, after _checked_chunk."""
    return _trigger_events(u.k, _checked_chunk(u, n, N, theta, trials), N)


def check_run(u, n_values, N: int, nprime: int | None, theta: float,
              delta: float, trials: int):
    """Refuse a buffers run over n_values before its first draw: every n's
    config checks, then MAX_RUN_TRIGGERS, then the resonance check, which
    depends on N, q and theta alone. So a config error exits 2 rather than
    3, whatever the order of n_values."""
    for n in n_values:
        _preamble(n, nprime)
        _checked_chunk(u, n, N, theta, trials)
        # _lag_freq scales int64 slots by 1 + delta in float arithmetic
        if not (delta > 0 and math.isfinite((1.0 + delta) * 2.0 ** 63)):
            raise ConfigError(f"delta must be positive, with (1 + delta) * "
                              f"2**63 finite, got {delta}")
        if math.floor(n * theta) < 1:
            raise ConfigError(f"n*theta under one slot (n={n}, theta={theta})")
    each = (trials + 15) * N + 700
    if len(n_values) * each > MAX_RUN_TRIGGERS:
        raise ConfigError(f"{len(n_values)} n_values at (trials + 15)*N + 700 "
                          f"= {each} trigger slots each exceed "
                          f"MAX_RUN_TRIGGERS = {MAX_RUN_TRIGGERS}")
    _check_resonance(1.0 / (N * u.q), theta, N)


def _trigger_rows(u, events: np.ndarray, trials: int,
                  seed: int) -> np.ndarray:
    """Every trial's trigger slots for the given events, as a
    (trials, len(events)) array from one draw.

    Row t is the cumulative sum of d_j + NegativeBinomial(d_j, q) over the
    gaps d_j between trigger events; chunk >= k makes every d_j >= 1. The
    slotted dispatch follows from a row in closed form (_checkpoints).
    """
    d = np.diff(events, prepend=0)
    rng = np.random.default_rng(seed)
    rows = rng.negative_binomial(d, u.q, size=(trials, len(events)))
    rows += d
    return np.cumsum(rows, axis=1, out=rows)


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

    Reads both schedulers off common trigger rows and reports, for each
    codeword j, the fraction of trials with sigma_j > (1+delta)*tau_j.
    """
    return buffer_experiment(u, [n], N, None, theta, delta, trials, seed)[0][0]


def immediacy_violation_freq(u, n: int, N: int, nprime: int | None,
                             theta: float, trials: int, seed: int) -> float:
    """Fraction of trials where some trigger fires before the previous
    burst has left the transmitter."""
    if N < 2:
        raise ValueError("violations need at least two codewords")
    nprime = _preamble(n, nprime)
    events = _checked_events(u, n, N, theta, trials)
    rel = _trigger_rows(u, events, trials, seed)
    return _violation_freq(rel, nprime + math.floor(n * theta))


def buffer_experiment(u, n_values, N: int, nprime: int | None, theta: float,
                      delta: float, trials: int, seed: int) -> list:
    """Both buffer statistics for each n of a run, one pass over the trials
    of each.

    check_run refuses the run before the first draw. Returns one
    (lag, violation) pair per n: lag is delay_gap_experiment's per-j
    frequency and violation is immediacy_violation_freq's, or None when
    N < 2 and no burst can follow another. Both read the same trigger
    rows, drawn afresh from seed for each n, so the values are those of
    the two experiments run apart with the same seed.
    """
    check_run(u, n_values, N, nprime, theta, delta, trials)
    out = []
    for n in n_values:
        events = _trigger_events(u.k, math.floor(n * (u.k / N)), N)
        rel = _trigger_rows(u, events, trials, seed)
        n_i = math.floor(n * theta)
        busy = _preamble(n, nprime) + n_i
        out.append((_lag_freq(rel, n_i, delta),
                    _violation_freq(rel, busy) if N >= 2 else None))
        del rel  # free this n's rows before the next n's draw
    return out
