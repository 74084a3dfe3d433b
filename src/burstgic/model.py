"""Core parameter containers and closed-form rate/power maps.

Everything in this module is pure and immutable. Powers are linear scale
throughout; dB conversion happens at the CLI config boundary and nowhere
else. All logarithms are base 2.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import ConfigError

__all__ = [
    "InfeasibleRateError",
    "IntervalUnion",
    "UserParams",
    "SchemeV",
    "RatePair",
    "capacity_c",
    "find_root",
    "rate_pair",
    "derive_scheme_v",
]


class InfeasibleRateError(ValueError):
    """Raised when a target rate falls outside the feasible open interval."""


def capacity_c(x: float) -> float:
    """Gaussian capacity 0.5*log2(1+x) for SNR x >= 0 (linear scale)."""
    if x < 0:
        raise ValueError(f"SNR must be nonnegative, got {x}")
    return 0.5 * math.log2(1.0 + x)


def _count(n: int) -> str:
    """An integer for a message: in full below 10**12 in magnitude, else in
    e-notation without converting it to a float, which overflows past
    about 1.8e308 (and whose digits would run to hundreds)."""
    if n < 0:
        return "-" + _count(-n)
    if n < 10 ** 12:
        return str(n)
    e = int(math.log10(n))  # math.log10 takes an int of any size
    lead = n / 10 ** e  # int true division rounds once
    if lead >= 10.0:
        lead, e = lead / 10.0, e + 1
    return f"{lead:.3g}e+{e}"


_XTOL = 1e-10
_RTOL = 4.0 * sys.float_info.epsilon
_MAXITER = 100


def find_root(f, lo: float, hi: float, error: type = ValueError) -> float:
    """Root of a continuous scalar f between lo and a bracket end >= hi.

    While f(lo) and f(hi) have the same strict sign, hi doubles; doubling
    past the largest float raises error, ConfigError where config numbers
    set f. The bracket is then solved by Brent's method, stepped exactly as
    the C brentq that the tests use as an oracle (xtol 1e-10, rtol 4*eps,
    at most 100 iterations), so both return the same float. A zero
    denominator in the interpolation step bisects, as the inf or NaN
    quotient of IEEE division does in C.
    """
    xpre, xcur = float(lo), float(hi)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    while (fpre < 0 and fcur < 0) or (fpre > 0 and fcur > 0):
        xcur *= 2.0
        if math.isinf(xcur):
            raise error(
                f"no sign change of f on [{lo}, {hi}*2**k] before overflow")
        fcur = float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if (fpre < 0) != (fcur < 0):  # fpre != 0; fcur == 0 returns below
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless an interpolation step is accepted
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(
        f"root finder did not converge in {_MAXITER} iterations at x={xcur}")


@dataclass(frozen=True)
class RatePair:
    """Per-symbol rates on clear (phi) and interfered (psi) stretches."""

    phi: float
    psi: float

    def __post_init__(self):
        if not (0.0 <= self.psi <= self.phi):
            raise ValueError(f"need 0 <= psi <= phi, got psi={self.psi}, phi={self.phi}")


def rate_pair(gamma_own: float, gamma_other: float, a_other: float) -> RatePair:
    """Rates sustained by a Gaussian codebook with and without interference.

    phi = C(gamma_own) when the other user is silent, psi treats the other
    user's signal (power gamma_other, cross gain a_other) as extra noise.
    """
    if gamma_own < 0 or gamma_other < 0 or a_other < 0:
        raise ValueError("powers and cross gains must be nonnegative")
    phi = capacity_c(gamma_own)
    psi = capacity_c(gamma_own / (1.0 + a_other * gamma_other))
    return RatePair(phi=phi, psi=psi)


@dataclass(frozen=True)
class UserParams:
    """Static per-user parameters.

    k: bits arriving per arrival event, q: arrival probability per slot,
    P: average power budget (linear), a: cross gain of this user's signal
    at the other receiver. lam = k*q is the arrival rate in bits/slot.

    q is nominally interior (0, 1); the boundary q = 1 is tolerated so the
    deterministic-arrivals edge case stays constructible.
    """

    k: int
    q: float
    P: float
    a: float

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ConfigError(f"k must be a positive integer, got {self.k!r}")
        if not (0.0 < self.q <= 1.0):
            raise ConfigError(f"q must be in (0, 1], got {self.q}")
        if not (math.isfinite(self.P) and self.P > 0):
            raise ConfigError(f"P must be positive and finite, got {self.P}")
        if not (math.isfinite(self.a) and self.a >= 0):
            raise ConfigError(
                f"cross gain a must be nonnegative and finite, got {self.a}")

    @property
    def lam(self) -> float:
        """Arrival rate k*q in bits per slot."""
        return self.k * self.q


@dataclass(frozen=True)
class SchemeV(object):
    """Fixed-length scheme: N codewords per k-bit batch, target rate R.

    Derived quantities are recomputed from (user, N, R) on access so there
    is a single source of truth. Direct construction only checks basic
    domains; use derive_scheme_v() to also enforce the feasibility window
    R in (lam*N/(N+1)*1{N>1}, lam).
    """

    user: UserParams
    N: int
    R: float

    def __post_init__(self):
        if not (isinstance(self.N, int) and self.N >= 1):
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if not (0.0 < self.R < self.user.lam):
            raise ValueError(
                f"R must be in (0, lam={self.user.lam}), got {self.R}"
            )

    @property
    def eta(self) -> float:
        """Bits per codeword over blocklength, k/N."""
        return self.user.k / self.N

    @property
    def theta(self) -> float:
        """Codeword length (scaled time) meeting rate R: (1/q)(lam/R - 1)."""
        return (self.user.lam / self.R - 1.0) / self.user.q

    @property
    def gamma(self) -> float:
        """Transmit power during bursts: (P/N) * lam/(lam - R)."""
        return (self.user.P / self.N) * self.user.lam / (self.user.lam - self.R)

    @property
    def mu(self) -> float:
        """Mean inter-burst spacing in scaled time, eta/lam = 1/(N q)."""
        return 1.0 / (self.N * self.user.q)


def derive_scheme_v(u: UserParams, N: int, R: float) -> SchemeV:
    """Build a SchemeV, rejecting rates outside the feasible window.

    Feasibility needs 0 < R < lam always, and R > lam*N/(N+1) when N > 1
    (otherwise the transmit queue is unstable).
    """
    lam = u.lam
    lo = lam * N / (N + 1.0) if N > 1 else 0.0
    if not (lo < R < lam):
        raise InfeasibleRateError(
            f"R={R} outside feasible interval ({lo}, {lam}) for N={N}"
        )
    return SchemeV(user=u, N=N, R=R)


_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class IntervalUnion:
    """Union of disjoint open intervals, kept sorted."""

    intervals: tuple

    @classmethod
    def from_intervals(cls, pairs) -> "IntervalUnion":
        """Normalize: drop empty pieces, sort, merge overlaps and touches."""
        pairs = sorted((lo, hi) for lo, hi in pairs if hi - lo > 0)
        merged = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1] + _MERGE_TOL:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return cls(intervals=tuple((lo, hi) for lo, hi in merged))

    @property
    def is_empty(self) -> bool:
        return not self.intervals
