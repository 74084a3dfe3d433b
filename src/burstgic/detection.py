"""Finite-length Monte Carlo of the detection and decoding chain.

Gaussian codebooks with known preambles are pushed through the two-user
interference channel; each receiver then locates burst arrivals by a
sequential joint-typicality scan, identifies the sender of each burst,
and decodes its own sender's codewords segment by segment against the
interference pattern. Everything is scored against the ground-truth
schedule carried on the trace.

All log-density statistics and differential entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import ConfigError

LOG2E = math.log2(math.e)

PDF_IDS = ("p1", "p2", "p3", "p4")

#: codebook sizes past this are not worth simulating on a desk
M_CAP = 1 << 16

#: Longest receiver trace, in slots, that one trial may build. A trial's
#: trace spans at most 2*n + 9*nprime slots (two bursts, the lead-in, the
#: gap and the tail); channel and scan hold about 50 bytes a slot, so a
#: trial at the cap peaks near 135 MB (peak RSS of a fresh CLI process).
MAX_TRACE = 1 << 21

#: Most receiver-trace slots one detect run may simulate: trials times
#: the slots of one trial's traces over every n (2*n + 9*nprime each, as
#: for MAX_TRACE). A trial also pays about 0.5 ms whatever its length, as
#: much as about 2**12 slots, so each n is charged at least that many. A
#: slot took about 0.2 us on the 2-CPU benchmark machine (0.34 s a trial
#: at n = 10**6, 0.6 ms at n = 64), so 2**28 slots is about a minute; a
#: trial count past it is refused before any stream is spawned. Decoding
#: also pays for each of the M codewords, so each n is charged 2*M slots
#: more: on a later day that machine took 0.10 us a slot (0.20 s a trial
#: at n = 10**6 and M = 64) and 0.12 to 0.19 us a codeword (at n = 64 and
#: 1000, M = 2**16 took 9 to 13 ms a trial against about 1 ms at M = 64).
MAX_TRIAL_SLOTS = 1 << 28

#: Largest receive power P per sample, 1 + gamma_own + a * gamma_other, at
#: either receiver; past it rounding, not noise, decides the tests.
#: deviations_from_sums expands the residual energy ||y - coef*x||^2 as
#: sum_y - 2*coef*cross + coef**2*sum_x: each term is about m*P over a
#: window of m slots, while the sent word's residual is about m noise
#: units. With unit roundoff u = 2**-53, each of sum_y, coef*cross and
#: coef**2*sum_x is off by at most about m*u*T*P on a trace of T slots:
#: the scan's window energies are differences of one cumulative sum whose
#: partial sums reach T*P, and a dot product's partial sums stay below
#: m*P <= T*P. So the residual is off by at most 4*m*u*T*P. The joint
#: deviation divides it by 2*m*var_res >= 2*m and scales it by log2(e), so
#: rounding moves it by at most 2*log2(e)*u*T*P bits. Its sampling
#: standard deviation is at least log2(e)/sqrt(2*m) >= log2(e)/sqrt(2*T).
#: Keeping rounding below that at T = MAX_TRACE gives
#: P <= 1/(2*u*T*sqrt(2*T)) = 2**20 (60.2 dB).
MAX_POWER = 2.0 ** 20

#: Relative widening of the window-energy band of the y condition (see
#: _energy_band). The y deviation depends on the window energy s alone: in
#: exact arithmetic dy = log2(e)/2 * |1 - r| with r = s/(m*var_y), so
#: dy < eps iff |1 - r| < c = 2*eps/log2(e). The scan computes
#: dy = |(A - q) + H| with A = -log2(2*pi*var_y)/2, H = h_y and
#: q = LOG2E*s/(2*m*var_y). With unit roundoff u = 2**-53, A and H are off
#: by at most u*(4 + 2*|A|) and u*(4 + 2*|H|) (rounded pi and e, the
#: products, log2), q by 6*u*q (LOG2E, the product and the quotient), and
#: the difference and the sum round by at most u*(|A| + q + |H|); so the
#: computed dy is off by at most 8*u*(1 + |A| + |H| + q). var_y >= 1 is a
#: finite double, so |A| and |H| stay below 540, and q <= r. A computed
#: dy < eps therefore needs |1 - r| < c + 2*8*u*(1081 + r)/log2(e), and as
#: such an r is below 2 + c, the excess is below
#: 2*8*u*1083*(1 + c)/log2(e) < 2**-39 * (1 + c). Widening the band by
#: BAND_SLACK*(1 + c) covers that with a factor 100 to spare for the
#: rounding of the band edges themselves (about 13*u*(1 + c)).
BAND_SLACK = 2.0 ** -32

DECODE_NONE = "NONE"
DECODE_AMBIGUOUS = "AMBIGUOUS"


# ---------------------------------------------------------------------------
# typicality machinery

@dataclass(frozen=True)
class TypicalityParams:
    """One receiver's reference density for a joint-typicality test.

    pdf picks the hypothesized situation for the pair (sent symbol,
    received sample): p1 own sender, clean; p2 own sender, interfered;
    p3 cross sender, clean; p4 cross sender, interfered. gamma1 is the
    power of this receiver's own sender and gamma2 the other sender's;
    a is the cross gain into this receiver. At Rx 2 pass (gamma2,
    gamma1, a1) for (gamma1, gamma2, a); rx_params does this bookkeeping.

    The Bernstein-type guarantees behind the scan ask for
    eps < min{gamma1/3, (gamma1 + a*gamma2)/2} * log2(e); that is an
    analysis working condition, not enforced here (see eps_guard).
    The derived scalars below are computed once per instance.
    """

    eps: float
    pdf: str
    gamma1: float
    gamma2: float
    a: float

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.pdf not in PDF_IDS:
            raise ValueError(f"unknown pdf id {self.pdf!r}")
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ValueError("symbol powers must be positive")
        if self.a < 0:
            raise ValueError("cross gain must be nonnegative")

    @cached_property
    def var_x(self) -> float:
        return self.gamma1 if self.pdf in ("p1", "p2") else self.gamma2

    @cached_property
    def coef(self) -> float:
        """Channel gain applied to the hypothesized sender's symbol."""
        return 1.0 if self.pdf in ("p1", "p2") else math.sqrt(self.a)

    @cached_property
    def var_res(self) -> float:
        """Variance of y - coef*x: unit noise plus any interferer."""
        if self.pdf == "p2":
            return 1.0 + self.a * self.gamma2
        if self.pdf == "p4":
            return 1.0 + self.gamma1
        return 1.0

    @cached_property
    def var_y(self) -> float:
        return self.coef ** 2 * self.var_x + self.var_res

    @cached_property
    def h_x(self) -> float:
        return 0.5 * math.log2(2.0 * math.pi * math.e * self.var_x)

    @cached_property
    def h_y(self) -> float:
        return 0.5 * math.log2(2.0 * math.pi * math.e * self.var_y)

    @cached_property
    def h_joint(self) -> float:
        # log2(2 pi e sqrt(det Sigma)) with det Sigma = var_x * var_res
        return math.log2(2.0 * math.pi * math.e
                         * math.sqrt(self.var_x * self.var_res))


def rx_params(eps: float, gamma_own: float, gamma_other: float,
              a_other: float) -> dict:
    """The four reference densities of one receiver, keyed by pdf id."""
    return {pdf: TypicalityParams(eps, pdf, gamma_own, gamma_other, a_other)
            for pdf in PDF_IDS}


def eps_guard(gamma1: float, gamma2: float, a: float) -> float:
    """Largest eps the concentration analysis behind the scan supports."""
    return min(gamma1 / 3.0, (gamma1 + a * gamma2) / 2.0) * LOG2E


def _mean_log_gauss(sumsq: float, m: int, var: float) -> float:
    """Mean of log2 g(.; var) over m samples with total square sum sumsq."""
    return -0.5 * math.log2(2.0 * math.pi * var) - LOG2E * sumsq / (2.0 * m * var)


def deviations_from_sums(sum_x, sum_y, cross, m: int, tp: TypicalityParams):
    """dx, dy, dxy of the typicality test from the sums over m samples.

    sum_x = ||x||^2, sum_y = ||y||^2 and cross = <x, y>; any of them may
    be an array and they broadcast, so the same step serves the window
    scan (one x, many windows of y) and decoding (many x, one y). The
    residual energy ||y - coef*x||^2 is expanded from the three sums.
    """
    sum_res = sum_y - 2.0 * tp.coef * cross + tp.coef ** 2 * sum_x
    dx = abs(_mean_log_gauss(sum_x, m, tp.var_x) + tp.h_x)
    dy = abs(_mean_log_gauss(sum_y, m, tp.var_y) + tp.h_y)
    joint = (_mean_log_gauss(sum_x, m, tp.var_x)
             - 0.5 * math.log2(2.0 * math.pi * tp.var_res)
             - LOG2E * sum_res / (2.0 * m * tp.var_res))
    dxy = abs(joint + tp.h_joint)
    return dx, dy, dxy


def _window_sums(y, m: int):
    """||y[t:t+m]||^2 for every window start t, from one cumulative sum."""
    csum = np.concatenate(([0.0], np.cumsum(y * y)))
    return csum[m:] - csum[:-m]


def _typical_from_sums(sum_x, sum_y, cross, m: int, tp: TypicalityParams):
    """(pass mask, joint deviation) of deviations_from_sums at tp.eps."""
    dx, dy, dxy = deviations_from_sums(sum_x, sum_y, cross, m, tp)
    return (dx < tp.eps) & (dy < tp.eps) & (dxy < tp.eps), dxy


def _energy_band(tp: TypicalityParams, m: int) -> tuple:
    """(lo, hi): a window of m slots whose energy lies outside [lo, hi]
    fails tp's y condition, as computed by deviations_from_sums.

    The interval is dy < eps solved for the energy, widened by
    BAND_SLACK (derived beside it) for rounding.
    """
    c = 2.0 * tp.eps / LOG2E
    w = (1.0 + c) * BAND_SLACK
    return m * tp.var_y * (1.0 - c - w), m * tp.var_y * (1.0 + c + w)


def _first_typical(y, sum_y, lo: int, hi: int, tests):
    """First window start t in [lo, hi) at which one of tests passes.

    tests holds (preamble, ||preamble||^2, params, energy band) per
    density, and sum_y holds the energy of every window of y. Windows
    whose energy lies in some test's band are the candidates. Starting
    at the first candidate, chunks of windows that double in length, from
    m on, go through _typical_from_sums with the correlation of that
    stretch of y alone; a test with no candidate in the chunk fails there
    and is skipped. The next chunk starts at the next candidate. Returns
    t and each test's (pass, joint deviation) at t, (False, None) for a
    skipped test, or None when no window in [lo, hi) passes.
    """
    m = tests[0][0].size
    sums = sum_y[lo:hi]
    bands = [(sums >= b_lo) & (sums <= b_hi) for *_, (b_lo, b_hi) in tests]
    inside = reduce(np.logical_or, bands)
    size = m
    i = 0
    while i < inside.size:
        i += int(inside[i:].argmax())  # the next candidate, if any
        if not inside[i]:
            return None
        j = min(i + size, inside.size)
        a = lo + i
        scored = [_typical_from_sums(
            sum_x, sum_y[a:lo + j],
            np.correlate(y[a:lo + j + m - 1], xs, mode="valid"), m, tp)
            if band[i:j].any() else None
            for (xs, sum_x, tp, _), band in zip(tests, bands)]
        ok = reduce(np.logical_or, [s[0] for s in scored if s])
        first = int(ok.argmax())
        if ok[first]:
            return a + first, [(s[0][first], s[1][first]) if s
                               else (False, None) for s in scored]
        i = j
        size *= 2
    return None


# ---------------------------------------------------------------------------
# codebooks and the channel

@dataclass(frozen=True, eq=False)
class GaussianCodebook:
    """M codewords of length n plus a preamble, all i.i.d. N(0, gamma)."""

    words: np.ndarray
    preamble: np.ndarray
    gamma: float

    def __post_init__(self):
        if self.words.ndim != 2 or self.words.shape[0] < 1:
            raise ValueError("words must be a nonempty M x n matrix")
        if self.words.shape[0] > M_CAP:
            raise ValueError(
                f"codebook size {self.words.shape[0]} exceeds the "
                f"simulation cap {M_CAP}")
        if self.preamble.ndim != 1 or self.preamble.size < 1:
            raise ValueError("preamble must be a nonempty vector")
        if self.gamma <= 0:
            raise ValueError("symbol power must be positive")

    @property
    def M(self) -> int:
        return self.words.shape[0]

    @property
    def n(self) -> int:
        return self.words.shape[1]

    @property
    def nprime(self) -> int:
        return self.preamble.size

    @property
    def rate(self) -> float:
        """Effective codebook rate log2(M)/n actually simulated."""
        return math.log2(self.M) / self.n

    def segment_stats(self, ys, lo: int):
        """(||w_s||^2, <w_s, ys>) for every codeword w, as length-M arrays.

        w_s is the codeword's symbols lo .. lo + len(ys) - 1.
        """
        ws = self.words[:, lo:lo + ys.size]
        return np.einsum("ij,ij->i", ws, ws), np.einsum("ij,j->i", ws, ys)

    @classmethod
    def draw(cls, M: int, n: int, nprime: int, gamma: float,
             rng: np.random.Generator) -> "GaussianCodebook":
        words = math.sqrt(gamma) * rng.standard_normal((M, n))
        preamble = math.sqrt(gamma) * rng.standard_normal(nprime)
        return cls(words=words, preamble=preamble, gamma=gamma)


@dataclass(frozen=True, eq=False)
class SentWordCodebook:
    """An M-word Gaussian codebook of which only the sent word is drawn.

    sent is an M = 1 GaussianCodebook holding the preamble and the
    codeword that went on the air; it stands at index msg. The other
    M - 1 codewords never reach the channel, so they are independent of
    the received samples, and decoding reads only their per-segment sums.
    segment_stats draws those sums exactly in distribution: for
    w ~ N(0, gamma I_m) and a fixed y, <w, y> = sqrt(gamma)*||y||*Z and
    ||w||^2 = gamma*(Z^2 + chi2_{m-1}) with one shared Z ~ N(0, 1).
    Every call draws fresh values from rng, which matches disjoint
    segments of independent codewords; decoding the same trace twice
    therefore sees two different sets of unsent words.
    """

    sent: GaussianCodebook
    M: int
    msg: int
    rng: np.random.Generator

    def __post_init__(self):
        if self.sent.M != 1:
            raise ValueError("sent must hold exactly the one sent codeword")
        if not 1 <= self.M <= M_CAP:
            raise ValueError(f"M must be in [1, {M_CAP}]")
        if not 0 <= self.msg < self.M:
            raise ValueError(f"message index {self.msg} outside [0, {self.M})")

    @property
    def n(self) -> int:
        return self.sent.n

    @property
    def preamble(self) -> np.ndarray:
        return self.sent.preamble

    @property
    def gamma(self) -> float:
        return self.sent.gamma

    def segment_stats(self, ys, lo: int):
        """(||w_s||^2, <w_s, ys>) for every codeword w, as length-M arrays.

        Entry msg is computed from the sent codeword exactly as
        GaussianCodebook.segment_stats does; the rest are drawn.
        """
        m = ys.size
        z = self.rng.standard_normal(self.M)
        chi2 = self.rng.chisquare(m - 1, self.M) if m > 1 else 0.0
        sum_x = self.gamma * (z * z + chi2)
        cross = math.sqrt(self.gamma * float(ys @ ys)) * z
        sent_x, sent_cross = self.sent.segment_stats(ys, lo)
        sum_x[self.msg] = sent_x[0]
        cross[self.msg] = sent_cross[0]
        return sum_x, cross


@dataclass(frozen=True, eq=False)
class RxTrace:
    """One receiver's samples plus the schedule that produced them.

    truth holds (sender, start slot, message index) per burst, sorted by
    start; it is only for scoring, the estimators never read it.
    """

    y: np.ndarray
    truth: tuple

    def __post_init__(self):
        if self.y.ndim != 1:
            raise ValueError("trace must be a 1-d sample vector")


def channel_run(schedules, codebooks, a1: float, a2: float, seed,
                horizon: int):
    """Push both users' bursts through the channel; returns both traces.

    schedules is a pair of (start, message) lists, codebooks a pair of
    GaussianCodebook. Each burst occupies [start, start + n' + n_i) as
    preamble then codeword; receiver i sees its own sender at unit gain,
    the other at sqrt(a_other), plus unit-variance noise.
    """
    rng = np.random.default_rng(seed)
    xs = []
    truth = []
    for i, (sched, cb) in enumerate(zip(schedules, codebooks), start=1):
        x = np.zeros(horizon)
        span = cb.nprime + cb.n
        last_end = -1
        for start, msg in sorted(sched):
            start = int(start)
            if start < 0 or start + span > horizon:
                raise ValueError(
                    f"user {i} burst at {start} leaves the horizon")
            if start <= last_end:
                raise ValueError(
                    f"user {i} burst at {start} overlaps its predecessor")
            x[start:start + cb.nprime] = cb.preamble
            x[start + cb.nprime:start + span] = cb.words[int(msg)]
            truth.append((i, start, int(msg)))
            last_end = start + span - 1
        xs.append(x)
    truth.sort(key=lambda rec: rec[1])
    x1, x2 = xs
    y1 = x1 + math.sqrt(a2) * x2 + rng.standard_normal(horizon)
    y2 = x2 + math.sqrt(a1) * x1 + rng.standard_normal(horizon)
    return (RxTrace(y=y1, truth=tuple(truth)),
            RxTrace(y=y2, truth=tuple(truth)))


# ---------------------------------------------------------------------------
# sequential arrival estimation

def estimate_arrivals(trace: RxTrace, preambles, tps, nprime: int,
                      n_codewords) -> list:
    """Sequential scan for burst starts; returns [(slot, sender), ...].

    Everything is in the receiver's frame: preambles[0] belongs to this
    receiver's own sender (unit gain, densities p1/p2), preambles[1] to
    the cross sender (cross gain, densities p3/p4), and the returned
    sender ids follow the same convention (1 = own, 2 = cross). Callers
    working at the second receiver should swap accordingly.

    Outside any known burst the receiver tests both preambles against
    their clean densities (p1/p3) and identifies the sender by whichever
    passes, breaking a double pass toward the smaller joint deviation.
    While exactly one sender's burst is live, only the other sender can
    arrive, so the scan switches to that preamble under the interfered
    density (p4 for the cross sender, p2 for the own sender) until the
    live burst ends, then falls back to the clean scan. Burst spans are
    known: n' + n_codewords[sender-1] slots from the detected start.

    Each step of the scan asks for the first passing window in a range,
    under one density or two, and only the windows it reads are tested.
    All window energies come from one cumulative sum. A window whose
    energy lies outside a density's band (_energy_band) fails that
    density's y condition, so only windows from the first in-band one
    onward are tested, in chunks that double in length, each with the
    correlation of its own stretch of y. A window's energy, correlation
    and deviations are the same floating-point values a test of every
    window of the trace computes (np.correlate takes one dot product per
    window, over the same samples, and the deviations apply the same
    elementwise expressions), so the estimates equal those of that full
    scan.
    """
    for pdf in PDF_IDS:
        if pdf not in tps:
            raise ValueError(f"missing typicality params for {pdf}")
    s1, s2 = (np.asarray(p, dtype=float) for p in preambles)
    if s1.size != nprime or s2.size != nprime:
        raise ValueError("preamble lengths must equal nprime")
    if nprime < 1:
        raise ValueError("preambles must be nonempty")
    y = np.asarray(trace.y, dtype=float)
    T = y.size - nprime + 1
    if T < 1:
        return []
    sum_y = _window_sums(y, nprime)
    tests = {pdf: (xs, float(xs @ xs), tps[pdf],
                   _energy_band(tps[pdf], nprime))
             for pdf, xs in zip(PDF_IDS, (s1, s1, s2, s2))}
    found = []
    ends = {1: -1, 2: -1}
    t = 0
    while t < T:
        live = [i for i in (1, 2) if ends[i] >= t]
        if len(live) == 2:
            t = min(ends.values()) + 1
            continue
        if len(live) == 1:
            i = live[0]
            o = 3 - i
            hit = _first_typical(y, sum_y, t, min(ends[i], T - 1) + 1,
                                 (tests["p4" if o == 2 else "p2"],))
            if hit:
                ts = hit[0]
                found.append((ts, o))
                ends[o] = ts + nprime + n_codewords[o - 1] - 1
                t = ts + 1
            else:
                t = ends[i] + 1
            continue
        hit = _first_typical(y, sum_y, t, T, (tests["p1"], tests["p3"]))
        if not hit:
            break
        ts, ((ok1, dev1), (ok3, dev3)) = hit
        if ok1 and ok3:
            sender = 1 if dev1 <= dev3 else 2
        else:
            sender = 1 if ok1 else 2
        found.append((ts, sender))
        ends[sender] = ts + nprime + n_codewords[sender - 1] - 1
        t = ts + 1
    return found


# ---------------------------------------------------------------------------
# decoding

def codeword_segments(code_start: int, n: int, other_spans) -> tuple:
    """Partition a codeword span by the other sender's burst spans.

    code_start is the slot of the first codeword symbol (preamble
    already skipped); other_spans are half-open (start, stop) slot
    ranges. Overlapped stretches decode against p2, the rest against p1.
    """
    marks = {code_start, code_start + n}
    for a, b in other_spans:
        marks.add(min(max(a, code_start), code_start + n))
        marks.add(min(max(b, code_start), code_start + n))
    cuts = sorted(marks)
    segs = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if a == b:
            continue
        hit = any(s < b and a < e for s, e in other_spans)
        segs.append(((a, b), "p2" if hit else "p1"))
    return tuple(segs)


def decode_codeword(trace: RxTrace, codebook, segments, tps):
    """Unique codeword passing every per-segment typicality test.

    segments is a list of ((start, stop), pdf id) slot ranges that
    partition the codeword span contiguously; symbol l of each candidate
    aligns with slot segments[0][0][0] + l. Returns the message index,
    DECODE_NONE if no candidate passes, DECODE_AMBIGUOUS if several do.

    codebook is a GaussianCodebook or a SentWordCodebook; only its M, n
    and segment_stats are read. Each segment's per-candidate sums
    (||w_s||^2, <w_s, y_s>) go through the same pass test as the scan.
    """
    if not segments:
        raise ValueError("need at least one segment")
    y = trace.y
    base = segments[0][0][0]
    expect = base
    total = 0
    for (a, b), pdf in segments:
        if b <= a:
            raise ValueError(f"empty segment ({a}, {b})")
        if a != expect:
            raise ValueError("segments must be contiguous")
        if a < 0 or b > y.size:
            raise ValueError(f"segment ({a}, {b}) outside the trace")
        if pdf not in tps:
            raise ValueError(f"missing typicality params for {pdf}")
        expect = b
        total += b - a
    if total != codebook.n:
        raise ValueError(
            f"segments cover {total} slots, codewords have {codebook.n}")
    alive = np.ones(codebook.M, dtype=bool)
    for (a, b), pdf in segments:
        ysl = y[a:b]
        sum_x, cross = codebook.segment_stats(ysl, a - base)
        ok, _ = _typical_from_sums(sum_x, float(ysl @ ysl), cross, b - a,
                                   tps[pdf])
        alive &= ok
        if not alive.any():
            return DECODE_NONE
    winners = np.flatnonzero(alive)
    if winners.size > 1:
        return DECODE_AMBIGUOUS
    return int(winners[0])


# ---------------------------------------------------------------------------
# experiment driver

@dataclass(frozen=True)
class DetectionConfig:
    """Scenario knobs for the one-burst-per-user experiment."""

    n_values: tuple
    gamma1: float
    gamma2: float
    a1: float
    a2: float
    eps: float
    M: int
    nprime_values: tuple = None  # default: ceil(sqrt(n)) per n

    def check_trials(self, trials: int) -> None:
        """Raise ConfigError unless 1 <= trials and trials times the
        per-trial slots, codewords priced in, fit MAX_TRIAL_SLOTS."""
        if trials < 1:
            raise ConfigError("need at least one trial")
        slots = sum(max(2 * n + 9 * self.nprime_for(idx) + 2 * self.M,
                        1 << 12)
                    for idx, n in enumerate(self.n_values))
        if trials * slots > MAX_TRIAL_SLOTS:
            raise ConfigError(f"trials of {slots} slots each may "
                              f"number at most {MAX_TRIAL_SLOTS // slots} "
                              f"(MAX_TRIAL_SLOTS = {MAX_TRIAL_SLOTS})")

    def __post_init__(self):
        if not self.n_values or any(n < 4 for n in self.n_values):
            raise ConfigError("n_values must be codeword lengths >= 4")
        if self.nprime_values is not None:
            if len(self.nprime_values) != len(self.n_values):
                raise ConfigError("nprime_values must pair up with n_values")
            if any(m < 2 for m in self.nprime_values):
                raise ConfigError("preamble lengths must be >= 2")
        for idx, n in enumerate(self.n_values):
            if 2 * n + 9 * self.nprime_for(idx) > MAX_TRACE:
                raise ConfigError(
                    f"n={n} with nprime={self.nprime_for(idx)} makes a "
                    f"trace of 2n + 9nprime slots beyond MAX_TRACE = "
                    f"{MAX_TRACE}")
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ConfigError("symbol powers must be positive")
        if self.a1 < 0 or self.a2 < 0:
            raise ConfigError("cross gains must be nonnegative")
        for rx, power in ((1, 1 + self.gamma1 + self.a2 * self.gamma2),
                          (2, 1 + self.gamma2 + self.a1 * self.gamma1)):
            if not power <= MAX_POWER:
                raise ConfigError(
                    f"receive power {power:.4g} at Rx {rx} exceeds "
                    f"MAX_POWER = {MAX_POWER:.4g}")
        if self.M < 2 or self.M > M_CAP:
            raise ConfigError(f"M must be in [2, {M_CAP}]")
        guard = min(eps_guard(self.gamma1, self.gamma2, self.a2),
                    eps_guard(self.gamma2, self.gamma1, self.a1))
        if not 0 < self.eps < guard:
            raise ConfigError(
                f"eps must sit in (0, {guard:.3g}) for these powers")

    def nprime_for(self, idx: int) -> int:
        if self.nprime_values is not None:
            return int(self.nprime_values[idx])
        return math.isqrt(self.n_values[idx] - 1) + 1  # ceil(sqrt(n))


@dataclass(frozen=True)
class DetectionRow:
    """Aggregated scores for one codeword length.

    Counts are over traces (two receivers per trial) except e2e_errors,
    which is per trial: a trial is end-to-end correct when both
    receivers recover every burst start exactly and decode their own
    message. false_alarms tallies spurious arrival estimates; they are
    reported on their own rather than negating recovery, because the
    rescan for a second arrival inside a live burst faces a mismatched
    density whose log-likelihood gap shrinks with the interference ratio
    and is not reliably rejectable at preamble-length windows.
    decode_errors = decode_none + decode_ambiguous + decode_wrong: no
    codeword passed, several passed, or a single wrong one passed.
    """

    n: int
    nprime: int
    trials: int
    traces: int
    bursts_total: int
    bursts_located: int
    recovered_traces: int
    misid_errors: int
    false_alarms: int
    decode_errors: int
    e2e_errors: int
    eff_rate: float
    decode_none: int
    decode_ambiguous: int
    decode_wrong: int

    @property
    def recovery_rate(self) -> float:
        return self.recovered_traces / self.traces

    @property
    def detect_error_rate(self) -> float:
        return 1.0 - self.recovery_rate

    @property
    def misid_rate(self) -> float:
        if self.bursts_located == 0:
            return 0.0
        return self.misid_errors / self.bursts_located

    @property
    def decode_error_rate(self) -> float:
        return self.decode_errors / self.traces

    @property
    def e2e_error_rate(self) -> float:
        return self.e2e_errors / self.trials


def _score_trace(trace, own_cb, other_cb, tps, nprime, own_user, starts,
                 own_start, other_span, own_msg):
    """Score one receiver: recovery, located bursts, misid, false alarms,
    own-message decode outcome ("ok", DECODE_NONE, DECODE_AMBIGUOUS or
    "wrong"). Sender labels from the scan are receiver-local (1 = own,
    2 = cross) and are mapped back to user ids here."""
    est = estimate_arrivals(trace, (own_cb.preamble, other_cb.preamble),
                            tps, nprime, (own_cb.n, other_cb.n))
    claimed = {slot: (own_user if s == 1 else 3 - own_user)
               for slot, s in est}
    located = 0
    mis = 0
    for slot, user in starts.items():
        if slot in claimed:
            located += 1
            if claimed[slot] != user:
                mis += 1
    fa = sum(1 for slot in claimed if slot not in starts)
    segs = codeword_segments(own_start + nprime, own_cb.n, (other_span,))
    decoded = decode_codeword(trace, own_cb, segs, tps)
    if decoded == own_msg:
        outcome = "ok"
    elif decoded in (DECODE_NONE, DECODE_AMBIGUOUS):
        outcome = decoded
    else:
        outcome = "wrong"
    return located == len(starts), located, mis, fa, outcome


def _run_trial(n: int, nprime: int, cfg: DetectionConfig, tps_pair,
               rng: np.random.Generator):
    """One trial; only the preambles and the two sent codewords are
    drawn as symbols, the unsent words enter through SentWordCodebook.
    tps_pair holds the rx_params of Rx 1 and Rx 2."""
    sent1 = GaussianCodebook.draw(1, n, nprime, cfg.gamma1, rng)
    sent2 = GaussianCodebook.draw(1, n, nprime, cfg.gamma2, rng)
    span = nprime + n
    t1 = int(rng.integers(0, 2 * nprime))
    t2 = t1 + span + int(rng.integers(nprime, 3 * nprime))
    horizon = t2 + span + 2 * nprime
    msg1 = int(rng.integers(cfg.M))
    msg2 = int(rng.integers(cfg.M))
    tr1, tr2 = channel_run((((t1, 0),), ((t2, 0),)), (sent1, sent2),
                           cfg.a1, cfg.a2, rng, horizon)
    cb1 = SentWordCodebook(sent1, cfg.M, msg1, rng)
    cb2 = SentWordCodebook(sent2, cfg.M, msg2, rng)
    tps1, tps2 = tps_pair
    starts = {t1: 1, t2: 2}
    out = []
    for trace, tps, own_cb, other_cb, own_msg, own, o_start in (
            (tr1, tps1, cb1, cb2, msg1, 1, t2),
            (tr2, tps2, cb2, cb1, msg2, 2, t1)):
        own_start = t1 if own == 1 else t2
        out.append(_score_trace(
            trace, own_cb, other_cb, tps, nprime, own, starts,
            own_start, (o_start, o_start + span), own_msg))
    return out


def detection_experiment(cfg: DetectionConfig, trials: int, seed) -> tuple:
    """Error frequencies per codeword length; one DetectionRow per n.

    Each trial sends one burst per user, separated by a random gap, and
    scores each receiver three ways: arrival recovery (every true burst
    start located exactly), sender identification over the located
    bursts, and spurious extra detections (false alarms). Decoding of
    each receiver's own message is scored against the interference
    pattern of the true schedule, i.e. for a receiver that has resolved
    the burst boundaries before decoding, so the decode column isolates
    codeword discrimination rather than compounding scan mistakes.
    Decoding errors are split into no candidate passing, several
    passing, and a single wrong one. Only the sent codewords are drawn
    as symbols; each receiver decodes against a SentWordCodebook whose
    other M - 1 words are exact draws of their sufficient statistics, so
    the cost grows with M times the number of segments rather than M*n.
    Trials draw from independent spawned streams, so the report is
    reproducible for a given seed and safe to parallelize later.
    """
    cfg.check_trials(trials)
    rows = []
    tps_pair = (rx_params(cfg.eps, cfg.gamma1, cfg.gamma2, cfg.a2),
                rx_params(cfg.eps, cfg.gamma2, cfg.gamma1, cfg.a1))
    per_n = np.random.SeedSequence(seed).spawn(len(cfg.n_values))
    for idx, (n, seq) in enumerate(zip(cfg.n_values, per_n)):
        nprime = cfg.nprime_for(idx)
        recovered = located = mis = fa = e2e = 0
        decoded = dict.fromkeys(("ok", DECODE_NONE, DECODE_AMBIGUOUS,
                                 "wrong"), 0)
        for rng in map(np.random.default_rng, seq.spawn(trials)):
            scores = _run_trial(n, nprime, cfg, tps_pair, rng)
            trial_ok = True
            for rec, loc, m, f, outcome in scores:
                recovered += rec
                located += loc
                mis += m
                fa += f
                decoded[outcome] += 1
                trial_ok &= rec and outcome == "ok"
            e2e += not trial_ok
        rows.append(DetectionRow(
            n=n, nprime=nprime, trials=trials, traces=2 * trials,
            bursts_total=4 * trials, bursts_located=located,
            recovered_traces=recovered, misid_errors=mis,
            false_alarms=fa, decode_errors=2 * trials - decoded["ok"],
            e2e_errors=e2e, eff_rate=math.log2(cfg.M) / n,
            decode_none=decoded[DECODE_NONE],
            decode_ambiguous=decoded[DECODE_AMBIGUOUS],
            decode_wrong=decoded["wrong"]))
    return tuple(rows)
