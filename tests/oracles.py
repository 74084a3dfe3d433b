"""Closed-form oracles that only the tests use.

Importable from any test module because pytest puts this directory on
sys.path.
"""

import math

from burstgic.geometry import OverlapTriple


def _jstar(mu: float, alpha: float) -> int:
    """Offset class: the j with alpha/j < mu < alpha/(j-1)."""
    if alpha <= 0:
        return 1
    js = int(math.floor(alpha / mu)) + 1
    if not alpha / js < mu:
        raise ValueError(f"mu={mu} sits exactly on a breakpoint alpha/{js}")
    return js


def sym_omega(N: int, mu: float, theta: float, alpha: float) -> dict:
    """Overlap triples of the symmetric layout, straight from (mu, theta, alpha).

    Closed-form counterpart of overlap_profile when both users share N, mu
    and theta (offsets 0 and alpha >= 0). w_in is always 0: equal-length
    bursts never nest strictly.
    """
    if mu <= 0 or theta <= 0:
        raise ValueError("mu and theta must be positive")
    if N > 1 and mu <= theta:
        raise ValueError("bursts overlap their own successors")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    js = _jstar(mu, alpha)
    lo_ok = mu > (alpha - theta) / (js - 1) if js > 1 else alpha < theta
    hi_ok = mu < (alpha + theta) / js
    out = {}
    for j in range(1, N + 1):
        wm1 = j - js if j >= js + 1 and hi_ok else 0
        wp1 = j - js + 1 if j >= js and lo_ok else 0
        wm2 = j + js - 1 if j <= N - js + 1 and lo_ok else 0
        wp2 = j + js if j <= N - js and hi_ok else 0
        out[(1, j)] = OverlapTriple(wm1, wp1, 0)
        out[(2, j)] = OverlapTriple(wm2, wp2, 0)
    return out
