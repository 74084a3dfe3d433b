"""Scaled-time burst geometry.

Positions of both users' bursts on the t-bar axis, overlap classification
per codeword, channel-state extraction and enumeration, and the breakpoint
sweep over the offset difference alpha = nu2 - nu1.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass

__all__ = [
    "DegenerateLayoutError",
    "BurstLayout",
    "OverlapTriple",
    "ChannelStateS",
    "overlap_profile",
    "state_of",
    "enumerate_states",
    "alpha_breakpoints",
]

# tolerance used internally when deciding whether endpoints coincide
_COINCIDENCE_TOL = 1e-12

_STATE_COUNT_GUARD = 10**7


class DegenerateLayoutError(ValueError):
    """Burst endpoints coincide, so overlap bookkeeping is ill-defined."""


@dataclass(frozen=True)
class BurstLayout:
    """Interval layout of both users' bursts in scaled time.

    Burst j of user i occupies (j*mu_i + nu_i, j*mu_i + nu_i + theta_i)
    for j = 1..N_i.
    """

    mu1: float
    theta1: float
    nu1: float
    N1: int
    mu2: float
    theta2: float
    nu2: float
    N2: int

    def __post_init__(self):
        for i, (mu, theta, N) in enumerate(
            [(self.mu1, self.theta1, self.N1), (self.mu2, self.theta2, self.N2)], 1
        ):
            if mu <= 0 or theta <= 0:
                raise ValueError(f"user {i}: need mu > 0 and theta > 0")
            if N < 1:
                raise ValueError(f"user {i}: N must be >= 1, got {N}")
            if N > 1 and mu <= theta:
                raise ValueError(
                    f"user {i}: bursts overlap each other (mu={mu} <= theta={theta})"
                )

    def params(self, user: int) -> tuple[float, float, float, int]:
        if user == 1:
            return self.mu1, self.theta1, self.nu1, self.N1
        if user == 2:
            return self.mu2, self.theta2, self.nu2, self.N2
        raise ValueError(f"user must be 1 or 2, got {user}")

    def burst(self, user: int, j: int) -> tuple[float, float]:
        """Endpoints of burst j of the given user."""
        mu, theta, nu, N = self.params(user)
        if not 1 <= j <= N:
            raise IndexError(f"user {user} has bursts 1..{N}, got {j}")
        lo = j * mu + nu
        return lo, lo + theta

    def bursts(self, user: int) -> list[tuple[float, float]]:
        _, _, _, N = self.params(user)
        return [self.burst(user, j) for j in range(1, N + 1)]


@dataclass(frozen=True)
class OverlapTriple:
    """How the other user's bursts sit relative to one codeword.

    w_minus / w_plus: index of the burst covering the codeword's left/right
    endpoint (0 when uncovered). w_in: number of bursts fully inside.
    """

    w_minus: int
    w_plus: int
    w_in: int

    def __post_init__(self):
        if min(self.w_minus, self.w_plus, self.w_in) < 0:
            raise ValueError("overlap indices are nonnegative")


@dataclass(frozen=True)
class ChannelStateS:
    """Channel state: interval indices (u_j, v_j) of each Tx-2 burst's
    endpoints in the partition cut by Tx-1's burst endpoints."""

    pairs: tuple

    def __post_init__(self):
        flat = self.flat
        if any(b < a for a, b in zip(flat, flat[1:])):
            raise ValueError(f"state sequence must be nondecreasing: {flat}")
        if any(f < 1 for f in flat):
            raise ValueError("interval indices start at 1")

    @property
    def flat(self) -> tuple:
        return tuple(x for p in self.pairs for x in p)

    @classmethod
    def from_flat(cls, flat) -> "ChannelStateS":
        flat = tuple(int(x) for x in flat)
        if len(flat) % 2:
            raise ValueError("flat state must have even length")
        return cls(pairs=tuple((flat[m], flat[m + 1]) for m in range(0, len(flat), 2)))


def _check_mild(l: BurstLayout, tol: float = _COINCIDENCE_TOL):
    ends1 = [e for b in l.bursts(1) for e in b]
    ends2 = [e for b in l.bursts(2) for e in b]
    for e1 in ends1:
        for e2 in ends2:
            if abs(e1 - e2) <= tol:
                raise DegenerateLayoutError(
                    f"burst endpoints coincide at t={e1} (within {tol})"
                )


def overlap_profile(l: BurstLayout) -> dict:
    """Overlap triple of every codeword, keyed by (user, j)."""
    _check_mild(l)
    out = {}
    for user, other in ((1, 2), (2, 1)):
        interferers = l.bursts(other)
        _, _, _, N = l.params(user)
        for j in range(1, N + 1):
            a, a2 = l.burst(user, j)
            w_minus = w_plus = w_in = 0
            for m, (b, b2) in enumerate(interferers, 1):
                if b < a < b2:
                    w_minus = m
                if b < a2 < b2:
                    w_plus = m
                if a < b and b2 < a2:
                    w_in += 1
            out[(user, j)] = OverlapTriple(w_minus, w_plus, w_in)
    return out


def state_of(l: BurstLayout) -> ChannelStateS:
    """Locate each Tx-2 endpoint in the partition cut by Tx-1 endpoints."""
    _check_mild(l)
    cuts = sorted(e for b in l.bursts(1) for e in b)
    pairs = []
    for b, b2 in l.bursts(2):
        u = bisect_left(cuts, b) + 1
        v = bisect_left(cuts, b2) + 1
        pairs.append((u, v))
    return ChannelStateS(pairs=tuple(pairs))


def enumerate_states(N1: int, N2: int) -> list:
    """All channel states reachable for burst counts (N1, N2).

    These are the nondecreasing sequences of length 2*N2 over the alphabet
    1..2*N1+1; there are C(2*N1+2*N2, 2*N2) of them.
    """
    if N1 < 1 or N2 < 1:
        raise ValueError("burst counts must be >= 1")
    count = math.comb(2 * N1 + 2 * N2, 2 * N2)
    if count > _STATE_COUNT_GUARD:
        raise ValueError(
            f"state count {count} exceeds guard {_STATE_COUNT_GUARD}"
        )
    alphabet = range(1, 2 * N1 + 2)
    states = []
    for flat in itertools.combinations_with_replacement(alphabet, 2 * N2):
        states.append(ChannelStateS.from_flat(flat))
    if len(states) != count:
        raise AssertionError(f"enumerated {len(states)} states, expected {count}")
    return states


def _critical_alphas(s1, s2):
    shifts = (0.0, s1.theta, -s2.theta, s1.theta - s2.theta)
    for j1 in range(1, s1.N + 1):
        for j2 in range(1, s2.N + 1):
            for c in shifts:
                yield j1 * s1.mu - j2 * s2.mu + c


def alpha_breakpoints(schemes) -> list:
    """Values of alpha = nu2 - nu1 where the channel state can change.

    Between consecutive breakpoints the state is constant in alpha.
    """
    s1, s2 = schemes
    out = []
    for v in sorted(_critical_alphas(s1, s2)):
        if not out or v - out[-1] > _COINCIDENCE_TOL:
            out.append(v)
    return out

