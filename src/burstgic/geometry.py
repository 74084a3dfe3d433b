"""Scaled-time burst geometry: the breakpoint sweep over the offset
difference alpha = nu2 - nu1.

The library prices each codeword from its covered length
(reliability.covered_length) and never lists channel states. The
per-layout geometry that the tests check it against (BurstLayout, the
overlap triples, the channel state and its enumeration) lives in
tests/oracles.py.
"""

from __future__ import annotations

__all__ = ["alpha_breakpoints"]

# tolerance used internally when deciding whether endpoints coincide
_COINCIDENCE_TOL = 1e-12


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

